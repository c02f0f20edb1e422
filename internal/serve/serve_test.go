package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/store"
)

// persistedStudy runs one cached study and returns the store, the study's
// manifest ID and the in-memory result for cross-checking.
func persistedStudy(t testing.TB) (*store.Store, string, *core.StudyResult) {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig(77, 0.025)
	cfg.UseHTTP = false
	cfg.CacheDir = dir
	cfg.Resume = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, res.Persist.StudyID, res
}

func get(t *testing.T, srv *httptest.Server, path string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, wantStatus, body)
	}
	return body
}

func TestServeEndToEnd(t *testing.T) {
	st, id, res := persistedStudy(t)
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()

	// Health reports the store census.
	var health map[string]any
	if err := json.Unmarshal(get(t, srv, "/healthz", 200), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["studies"].(float64) != 1 {
		t.Fatalf("health: %v", health)
	}
	if health["analyses"].(float64) == 0 || health["reports"].(float64) == 0 {
		t.Fatalf("health census empty: %v", health)
	}

	// Studies listing surfaces the persisted run.
	var studies []store.ManifestEntry
	if err := json.Unmarshal(get(t, srv, "/api/studies", 200), &studies); err != nil {
		t.Fatal(err)
	}
	if len(studies) != 1 || studies[0].ID != id {
		t.Fatalf("studies: %+v", studies)
	}

	// Study detail includes dataset stats matching the in-memory run.
	var detail struct {
		Snapshots map[string]struct {
			Dataset analysis.DatasetStats `json:"dataset"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(get(t, srv, "/api/studies/"+id, 200), &detail); err != nil {
		t.Fatal(err)
	}
	if got := detail.Snapshots["2021"].Dataset; !reflect.DeepEqual(got, res.Corpus21.Dataset()) {
		t.Fatalf("served dataset %+v != computed %+v", got, res.Corpus21.Dataset())
	}

	// Report tables are byte-identical to the in-memory render.
	want := core.StudyTables(res.Corpus20, res.Corpus21)
	var tables map[string]string
	if err := json.Unmarshal(get(t, srv, "/api/studies/"+id+"/tables", 200), &tables); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tables, want) {
		t.Fatal("served tables diverge from the in-memory study")
	}
	raw := get(t, srv, "/api/studies/"+id+"/tables?name=table2.txt", 200)
	if string(raw) != want["table2.txt"] {
		t.Fatal("raw table render diverges")
	}
	get(t, srv, "/api/studies/"+id+"/tables?name=nope.txt", 404)

	// Model lookup by checksum answers from the analysis CAS.
	uniques := res.Corpus21.SortedUniques()
	if len(uniques) == 0 {
		t.Fatal("degenerate study")
	}
	u := uniques[0]
	var ms analysis.ModelSummary
	if err := json.Unmarshal(get(t, srv, "/api/models/"+string(u.Checksum), 200), &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Name != u.Name || ms.Task != u.Task.String() || ms.FLOPs != u.Profile.FLOPs {
		t.Fatalf("model summary %+v != unique %s/%s", ms, u.Name, u.Task)
	}
	get(t, srv, "/api/models/00000000000000000000000000000000", 404)
	get(t, srv, "/api/models/not-a-checksum", 404)

	// Temporal diff between the two persisted snapshots matches the
	// in-memory analysis.
	var diff struct {
		Rows []analysis.ChurnRow `json:"rows"`
	}
	path := fmt.Sprintf("/api/diff?from=%s:2020&to=%s:2021", id, id)
	if err := json.Unmarshal(get(t, srv, path, 200), &diff); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diff.Rows, analysis.TemporalDiff(res.Corpus20, res.Corpus21)) {
		t.Fatal("served diff diverges from in-memory diff")
	}
	// Default labels: from defaults to 2020, to defaults to 2021.
	var defDiff struct {
		Rows []analysis.ChurnRow `json:"rows"`
	}
	if err := json.Unmarshal(get(t, srv, fmt.Sprintf("/api/diff?from=%s&to=%s", id, id), 200), &defDiff); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(defDiff.Rows, diff.Rows) {
		t.Fatal("default-label diff diverges")
	}

	get(t, srv, "/api/diff?from="+id, 400)
	get(t, srv, fmt.Sprintf("/api/diff?from=nope&to=%s", id), 404)
	get(t, srv, fmt.Sprintf("/api/diff?from=%s:1999&to=%s", id, id), 404)
	get(t, srv, "/api/studies/unknown-study", 404)
	get(t, srv, "/api/studies/unknown-study/tables", 404)
}

func TestServeEmptyStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()
	var health map[string]any
	if err := json.Unmarshal(get(t, srv, "/healthz", 200), &health); err != nil {
		t.Fatal(err)
	}
	if health["studies"].(float64) != 0 {
		t.Fatalf("empty store health: %v", health)
	}
	body := get(t, srv, "/api/studies", 200)
	var studies []store.ManifestEntry
	if err := json.Unmarshal(body, &studies); err != nil || len(studies) != 0 {
		t.Fatalf("empty store studies: %s err=%v", body, err)
	}
}
