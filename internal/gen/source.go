package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// This file is the source-fixture half of the workload generator: a
// tiny HTTP handler that serves relation payload files (NDJSON/JSON or
// CSV) with strong content-hash ETags and If-None-Match revalidation —
// exactly the upstream contract the mdqa HTTP source connector
// revalidates against. The e2e pipeline boots it as cmd/mdfixture,
// points an mdserve -source binding at it, rewrites a file and drives
// POST .../refresh; tests use the handler in-process via httptest.

// FixtureHandler serves the files under dir. Every 200 carries a
// strong ETag derived from the content (sha256), and a request whose
// If-None-Match matches the current content answers 304 with an empty
// body — so a poller's revalidation costs a hash comparison, not a
// transfer. Files may be rewritten between requests; the ETag moves
// with the bytes.
type FixtureHandler struct {
	dir string
}

// NewFixtureHandler builds a handler rooted at dir.
func NewFixtureHandler(dir string) *FixtureHandler { return &FixtureHandler{dir: dir} }

func (h *FixtureHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// path.Clean plus the leading-slash trim confines lookups to dir
	// (".." never survives Clean on a rooted path).
	rel := strings.TrimPrefix(path.Clean("/"+r.URL.Path), "/")
	if rel == "" {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	data, err := os.ReadFile(filepath.Join(h.dir, filepath.FromSlash(rel)))
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	sum := sha256.Sum256(data)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(data)
}
