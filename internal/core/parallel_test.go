package core

import (
	"context"
	"reflect"
	"testing"
)

// studyFingerprint reduces a study to everything the figures depend on, in
// a deeply comparable form.
type studyFingerprint struct {
	Records20, Records21   []string
	Apps20, Apps21         []string
	Uniques20, Uniques21   []string
	Instances21            []int
	Shared21               float64
	BenchChecksums         []string
	TemporalDiffCategories []string
}

func fingerprint(t *testing.T, res *StudyResult) studyFingerprint {
	t.Helper()
	var fp studyFingerprint
	for _, r := range res.Corpus20.Records {
		fp.Records20 = append(fp.Records20, r.Package+"/"+r.Path+"#"+string(r.Checksum))
	}
	for _, r := range res.Corpus21.Records {
		fp.Records21 = append(fp.Records21, r.Package+"/"+r.Path+"#"+string(r.Checksum))
	}
	for _, a := range res.Corpus20.Apps {
		fp.Apps20 = append(fp.Apps20, a.Package)
	}
	for _, a := range res.Corpus21.Apps {
		fp.Apps21 = append(fp.Apps21, a.Package)
	}
	// Framework is part of the fingerprint on purpose: the tflite+dlc
	// twins ship one checksum under two formats, so the field only stays
	// deterministic if the merge assigns it from the globally-first record.
	for _, u := range res.Corpus20.SortedUniques() {
		fp.Uniques20 = append(fp.Uniques20, string(u.Checksum)+"/"+u.Framework)
	}
	for _, u := range res.Corpus21.SortedUniques() {
		fp.Uniques21 = append(fp.Uniques21, string(u.Checksum)+"/"+u.Framework)
		fp.Instances21 = append(fp.Instances21, u.Instances)
	}
	fp.Shared21 = res.Corpus21.InstancesSharedAcrossApps()
	models, err := SelectBenchModels(res.Corpus21, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		fp.BenchChecksums = append(fp.BenchChecksums, m.Checksum)
	}
	for _, row := range TemporalDiffRows(res) {
		fp.TemporalDiffCategories = append(fp.TemporalDiffCategories, row.Category)
	}
	return fp
}

// TestRunStudyDeterministicAcrossWorkerCounts is the shard-merge
// determinism gate: a fixed seed must produce byte-identical corpora (app
// order, record order, SortedUniques order, bench selection) no matter how
// many workers the pipeline fans out over.
func TestRunStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int, useHTTP bool) studyFingerprint {
		cfg := DefaultConfig(77, 0.025)
		cfg.UseHTTP = useHTTP
		cfg.Workers = workers
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, res)
	}
	base := run(1, false)
	if len(base.Records21) == 0 || len(base.Uniques21) == 0 {
		t.Fatal("degenerate baseline study")
	}
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers, false); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d in-process study diverges from workers=1", workers)
		}
	}
	// The HTTP source must agree with itself across worker counts too
	// (TestRunStudyHTTPAndInProcessAgree holds it to the in-process bytes).
	httpBase := run(1, true)
	if got := run(5, true); !reflect.DeepEqual(httpBase, got) {
		t.Fatal("workers=5 HTTP study diverges from workers=1")
	}
}

// TestRunStudyConcurrentSnapshotsShareCache sanity-checks the concurrent
// two-snapshot run: carried-over checksums appear in both corpora with
// identical (cache-shared) profiles.
func TestRunStudyConcurrentSnapshotsShareCache(t *testing.T) {
	res := smallStudy(t, false)
	shared := 0
	for sum, u20 := range res.Corpus20.Uniques {
		if u21, ok := res.Corpus21.Uniques[sum]; ok {
			shared++
			if u20.Profile != u21.Profile {
				t.Fatalf("checksum %s profiled twice (cache not shared across snapshots)", sum)
			}
			if u20 == u21 {
				t.Fatal("snapshots must not share Unique records")
			}
		}
	}
	if shared == 0 {
		t.Fatal("no checksum survives 2020->2021; churn generator broken?")
	}
}
