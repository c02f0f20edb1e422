package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"sync"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/store"
)

// apkMemo is one snapshot's apk store record, which lets an in-process
// warm run skip packaging and hashing: it maps every APK recipe
// (playstore.Snapshot.APKRecipe) an earlier completed run of the same
// study packaged to the report key its APK hashed to, and every recipe
// whose packaging failed to the error's text. Lookups only answer Resume
// runs; every run collects its own outcomes and writes them back once the
// snapshot completes, if they changed. A nil memo (no store) misses every
// lookup and records nothing.
type apkMemo struct {
	st   *store.Store
	key  string
	prev []byte            // the stored record's bytes
	old  extract.APKRecord // its entries, decoded on Resume runs

	mu  sync.Mutex
	cur extract.APKRecord
}

// apkRecordKey names the record of one (study, snapshot) pair.
func apkRecordKey(studyID, label string) string {
	sum := sha256.Sum256([]byte("apk\x00" + studyID + "\x00" + label))
	return store.HexKey(sum[:])
}

// openAPKMemo loads a snapshot's record. A read error, an absent record
// or one that does not decode leaves the memo empty: every app then takes
// the build-and-hash path, and the record is rewritten at the end.
func (e *studyEngine) openAPKMemo(label string) *apkMemo {
	if e.st == nil {
		return nil
	}
	m := &apkMemo{st: e.st, key: apkRecordKey(StudyID(e.cfg), label), cur: extract.NewAPKRecord()}
	data, ok, err := e.st.Get(store.KindAPK, m.key)
	if err != nil || !ok {
		return m
	}
	m.prev = data
	if e.cfg.Resume {
		m.old, _ = extract.DecodeAPKRecord(data)
	}
	return m
}

// recipe renders an app's recipe as a record key; "" without a memo,
// so runs without a store never pay for it.
func (m *apkMemo) recipe(snap *playstore.Snapshot, a *playstore.App) string {
	if m == nil {
		return ""
	}
	r := snap.APKRecipe(a)
	return store.HexKey(r[:])
}

// lookup returns the report key an earlier run recorded for recipe.
func (m *apkMemo) lookup(recipe string) (string, bool) {
	if m == nil {
		return "", false
	}
	key, ok := m.old.Keys[recipe]
	return key, ok
}

// recordedReport returns the report an earlier run recorded for recipe.
// It is trusted under the same guard as any warm report, and only when it
// names pkg; on a miss the caller builds and hashes the APK instead.
func (e *studyEngine) recordedReport(m *apkMemo, recipe, pkg string) (*extract.Report, string, bool) {
	key, ok := m.lookup(recipe)
	if !ok {
		return nil, "", false
	}
	rep, ok := e.warmReport(key)
	if !ok || rep.Package != pkg {
		return nil, "", false
	}
	return rep, key, true
}

// record notes that recipe's APK hashed to the report key key in this
// run; call it only once that report is ingested and persisted.
func (m *apkMemo) record(recipe, key string) {
	if m == nil || key == "" {
		return
	}
	m.mu.Lock()
	m.cur.Keys[recipe] = key
	m.mu.Unlock()
}

// build packages recipe's APK with build, unless an earlier run recorded
// that packaging it failed: BuildAPK is a pure function of the recipe, so
// the recorded error's text is returned without building anything. A
// failure, recorded or new, is noted for this run's record.
func (m *apkMemo) build(recipe string, build func() ([]byte, error)) ([]byte, error) {
	if m == nil {
		return build()
	}
	msg, failed := m.old.Failed[recipe]
	var data []byte
	var err error
	if failed {
		err = errors.New(msg)
	} else if data, err = build(); err != nil {
		msg = err.Error()
	}
	if err != nil {
		m.mu.Lock()
		m.cur.Failed[recipe] = msg
		m.mu.Unlock()
	}
	return data, err
}

// persist writes this run's record when it differs from the stored one.
// It runs after the snapshot completed, so every report the record names
// is already in the store.
func (m *apkMemo) persist() error {
	if m == nil {
		return nil
	}
	data, err := extract.EncodeAPKRecord(m.cur)
	if err != nil {
		return err
	}
	if bytes.Equal(data, m.prev) {
		return nil
	}
	return m.st.Put(store.KindAPK, m.key, data)
}
