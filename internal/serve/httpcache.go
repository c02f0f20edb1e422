package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
)

// etagOf derives a strong ETag from the parts that determine a
// response's bytes — endpoint name plus the CAS keys (or content
// checksums) of everything it renders. Because every input is already a
// content hash, revalidation never touches a blob: equal keys mean equal
// bytes, so a matching If-None-Match is answered 304 for free.
func etagOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // unambiguous joins: ("ab","c") != ("a","bc")
	}
	return `"` + hex.EncodeToString(h.Sum(nil))[:16] + `"`
}

// cacheHit stamps the response's validators — ETag plus a short
// Cache-Control so probes and dashboards coalesce bursts — and reports
// whether the request revalidated: on an If-None-Match match it writes
// 304 with an empty body and the caller returns without rendering.
func cacheHit(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=5")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// etagMatches implements If-None-Match's comparison: a "*" wildcard or
// any member of the comma-separated candidate list equal to the
// response's ETag. Weak validators (W/ prefix) compare by opaque value,
// per the weak comparison the 304 evaluation uses.
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag {
			return true
		}
	}
	return false
}

// response is a rendered read: the strong ETag plus the JSON body.
// Server.responses memoises them by a cheap request-derived cache key
// (path values, raw query, manifest fingerprint; never a hash). The key's
// parts pin every input the response depends on, so an entry can never go
// stale: a changed input is a different key, and orphaned keys age out of
// the LRU. Keying by request rather than by ETag is what makes the warm
// path allocation-free of hashing — one string concat and one map probe
// replace the sha256 the slow path pays to derive the validator.
type response struct {
	etag string
	body []byte
}

// served replays a memoised response for one content-addressed GET: on a
// cache-key hit, a matching If-None-Match is a 304 and anything else gets
// the memoised bytes — no hashing, no rendering. Returns true when the
// response went out; a miss falls through to the handler's slow path,
// which derives the real ETag and memoises via memoJSON.
func (s *Server) served(w http.ResponseWriter, r *http.Request, key string) bool {
	ent, ok := s.responses.get(key)
	if !ok {
		return false
	}
	if cacheHit(w, r, ent.etag) {
		return true
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(ent.body); err != nil {
		logf("serve: replaying memoised response: %v", err)
	}
	return true
}

// memoJSON writes v like writeJSON and retains (etag, body) under the
// request-derived cache key for served to replay.
func (s *Server) memoJSON(w http.ResponseWriter, key, etag string, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		logf("serve: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.responses.add(key, response{etag: etag, body: buf.Bytes()})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		logf("serve: writing %T response: %v", v, err)
	}
}
