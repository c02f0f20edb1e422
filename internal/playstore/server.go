package playstore

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
)

// Server exposes a snapshot over the store's device-facing HTTP API:
//
//	GET /fdfe/categories                         -> ["COMMUNICATION", ...]
//	GET /fdfe/topCharts?cat=C&n=500              -> chart entries
//	GET /fdfe/details?doc=pkg                    -> app metadata
//	GET /fdfe/purchase?doc=pkg                   -> base APK bytes
//	GET /fdfe/delivery?doc=pkg                   -> companion-file manifest
//	GET /fdfe/assetModules?doc=pkg&pack=name     -> asset-pack bytes
//
// Requests must carry a User-Agent and an X-DFE-Locale header, as gaugeNN
// "mimics the web API calls made from the Google Play store of a typical
// mobile device ... both the user-agent and locale headers are defined".
// The optional X-DFE-Device header names the requesting device model; the
// server records it so tests can verify that delivery is device-agnostic
// (the Section 4.2 null result).
type Server struct {
	snap *Snapshot

	mu            sync.Mutex
	deviceLog     []string
	requestCounts map[string]int
}

// NewServer wraps a snapshot.
func NewServer(snap *Snapshot) *Server {
	return &Server{snap: snap, requestCounts: map[string]int{}}
}

// DeviceLog returns the device models observed across requests.
func (s *Server) DeviceLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.deviceLog...)
}

// RequestCount returns how many requests hit the given endpoint path.
func (s *Server) RequestCount(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requestCounts[path]
}

// ChartEntry is one row of a top-charts response.
type ChartEntry struct {
	Package   string  `json:"package"`
	Title     string  `json:"title"`
	Category  string  `json:"category"`
	Rank      int     `json:"rank"`
	Downloads int64   `json:"downloads"`
	Rating    float64 `json:"rating"`
}

// DeliveryManifest lists an app's companion files. Per the paper's finding,
// generated apps ship everything in the base APK, so both lists are empty —
// but the endpoint exists and the crawler must check it.
type DeliveryManifest struct {
	Package    string   `json:"package"`
	OBBs       []string `json:"obbs"`
	AssetPacks []string `json:"assetPacks"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("User-Agent") == "" || r.Header.Get("X-DFE-Locale") == "" {
		http.Error(w, "store requires device user-agent and locale headers", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.requestCounts[r.URL.Path]++
	if dev := r.Header.Get("X-DFE-Device"); dev != "" {
		s.deviceLog = append(s.deviceLog, dev)
	}
	s.mu.Unlock()

	switch r.URL.Path {
	case "/fdfe/categories":
		cats := Categories()
		names := make([]string, len(cats))
		for i, c := range cats {
			names[i] = string(c)
		}
		writeJSON(w, names)
	case "/fdfe/topCharts":
		s.handleTopCharts(w, r)
	case "/fdfe/details":
		s.handleDetails(w, r)
	case "/fdfe/purchase":
		s.handlePurchase(w, r)
	case "/fdfe/delivery":
		s.handleDelivery(w, r)
	case "/fdfe/assetModules":
		http.Error(w, "no asset packs for this app", http.StatusNotFound)
	default:
		http.NotFound(w, r)
	}
}

// ChartDepth is the most apps a category's top chart lists: the store API
// returns "a maximum of 500 apps" per category, so a crawl visits each
// category's top 500 and no more.
const ChartDepth = 500

func (s *Server) handleTopCharts(w http.ResponseWriter, r *http.Request) {
	cat := Category(r.URL.Query().Get("cat"))
	if cat == "" {
		http.Error(w, "missing cat", http.StatusBadRequest)
		return
	}
	n := ChartDepth
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = min(v, ChartDepth)
	}
	apps := s.snap.TopChart(cat, n)
	entries := make([]ChartEntry, len(apps))
	for i, a := range apps {
		entries[i] = ChartEntry{
			Package:   a.Package,
			Title:     a.Title,
			Category:  string(a.Category),
			Rank:      a.Rank,
			Downloads: a.Downloads,
			Rating:    a.Rating,
		}
	}
	writeJSON(w, entries)
}

func (s *Server) handleDetails(w http.ResponseWriter, r *http.Request) {
	app, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, ChartEntry{
		Package:   app.Package,
		Title:     app.Title,
		Category:  string(app.Category),
		Rank:      app.Rank,
		Downloads: app.Downloads,
		Rating:    app.Rating,
	})
}

func (s *Server) handlePurchase(w http.ResponseWriter, r *http.Request) {
	app, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := s.snap.BuildAPK(app)
	if err != nil {
		http.Error(w, fmt.Sprintf("packaging failed: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/vnd.android.package-archive")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleDelivery(w http.ResponseWriter, r *http.Request) {
	app, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, DeliveryManifest{Package: app.Package, OBBs: []string{}, AssetPacks: []string{}})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*App, bool) {
	pkg := r.URL.Query().Get("doc")
	if pkg == "" {
		http.Error(w, "missing doc", http.StatusBadRequest)
		return nil, false
	}
	app, ok := s.snap.AppByPackage(pkg)
	if !ok {
		http.Error(w, "unknown package", http.StatusNotFound)
		return nil, false
	}
	return app, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Listen starts the server on a loopback port and returns its base URL and
// a shutdown function.
func (s *Server) Listen() (baseURL string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("playstore: %w", err)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() error { return srv.Close() }, nil
}
