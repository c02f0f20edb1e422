package cloudml

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T) (*InferenceServer, string) {
	t.Helper()
	srv := NewInferenceServer()
	base, shutdown, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return srv, base
}

// servedCount is a client transport that counts the responses with
// status 200: each is one inference the server answered.
type servedCount struct{ atomic.Int64 }

func (n *servedCount) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusOK {
		n.Add(1)
	}
	return resp, err
}

func TestOffloadLatencyComposition(t *testing.T) {
	srv, base := startServer(t)
	c := NewOffloadClient(base, NetworkWiFi)
	var served servedCount
	c.HTTP.Transport = &served
	lat, err := c.Infer("Vision/Face", 100*1024)
	if err != nil {
		t.Fatal(err)
	}
	// RTT (18ms) + 100 KiB over 80 Mbps (~10.2ms) + server 9ms + jitter 0.
	want := NetworkWiFi.RTT + time.Duration(float64(100*1024*8)/(80e6)*1e9) + srv.ComputeTime
	if diff := lat - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("latency = %v, want ~%v", lat, want)
	}
	if served.Load() != 1 {
		t.Fatalf("requests = %d", served.Load())
	}
}

func TestOffloadNetworkProfilesOrdering(t *testing.T) {
	_, base := startServer(t)
	lat := map[string]time.Duration{}
	for _, n := range []NetworkProfile{NetworkWiFi, Network4G, Network3G} {
		c := NewOffloadClient(base, n)
		l, err := c.Infer("Vision/Barcode", 50*1024)
		if err != nil {
			t.Fatal(err)
		}
		lat[n.Name] = l
	}
	if !(lat["wifi"] < lat["4g"] && lat["4g"] < lat["3g"]) {
		t.Fatalf("network ordering broken: %v", lat)
	}
}

func TestOffloadConsistencyAcrossClients(t *testing.T) {
	// The cloud's compute time does not depend on who calls — the
	// "consistent QoE" property of Section 6.4.
	_, base := startServer(t)
	a := NewOffloadClient(base, Network4G)
	b := NewOffloadClient(base, Network4G)
	la, err := a.Infer("Speech", 10*1024)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Infer("Speech", 10*1024)
	if err != nil {
		t.Fatal(err)
	}
	if la != lb {
		t.Fatalf("identical requests should cost the same: %v vs %v", la, lb)
	}
}

func TestOffloadJitterIsDeterministic(t *testing.T) {
	_, base := startServer(t)
	c := NewOffloadClient(base, Network4G)
	var lats []time.Duration
	for i := 0; i < 6; i++ {
		l, err := c.Infer("Vision/Face", 1024)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, l)
	}
	// Jitter cycles with period 3.
	if lats[0] != lats[3] || lats[1] != lats[4] || lats[2] != lats[5] {
		t.Fatalf("jitter should cycle deterministically: %v", lats)
	}
	if lats[0] == lats[1] {
		t.Fatal("jitter should vary within the cycle")
	}
}

func TestOffloadErrors(t *testing.T) {
	_, base := startServer(t)
	c := NewOffloadClient(base, NetworkWiFi)
	if _, err := c.Infer("Nonexistent API", 10); err == nil {
		t.Fatal("unknown API should fail")
	}
	dead := NewOffloadClient("http://127.0.0.1:1", NetworkWiFi)
	if _, err := dead.Infer("Vision/Face", 10); err == nil {
		t.Fatal("unreachable endpoint should fail")
	}
}

func TestInferenceServerRejectsBadRequests(t *testing.T) {
	_, base := startServer(t)
	c := NewOffloadClient(base, NetworkWiFi)
	var served servedCount
	c.HTTP.Transport = &served
	c.BaseURL = base // GET path coverage via wrong method is internal; rely on API check
	if _, err := c.Infer("", 10); err == nil {
		t.Fatal("empty API should fail")
	}
	if served.Load() != 0 {
		t.Fatal("rejected requests must not count")
	}
}
