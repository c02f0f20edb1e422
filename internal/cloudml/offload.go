package cloudml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// The offload path quantifies the paper's Section 6.4/8.1 discussion:
// "offloading inference to the cloud offers a consistent QoE, which is not
// dependent on the target device, at the expense of privacy and monetary
// cost". An InferenceServer plays the datacenter endpoint; NetworkProfile
// models the radio link; OffloadClient measures end-to-end latency the way
// an app would experience it.

// NetworkProfile is the uplink a device offloads over.
type NetworkProfile struct {
	Name string
	// RTT is the round-trip time to the endpoint.
	RTT time.Duration
	// UplinkMbps bounds the request payload transfer.
	UplinkMbps float64
	// Jitter widens per-request latency deterministically by request
	// counter (r%3) * Jitter / 3, keeping runs reproducible.
	Jitter time.Duration
}

// Common mobile link profiles.
var (
	NetworkWiFi = NetworkProfile{Name: "wifi", RTT: 18 * time.Millisecond, UplinkMbps: 80, Jitter: 6 * time.Millisecond}
	Network4G   = NetworkProfile{Name: "4g", RTT: 55 * time.Millisecond, UplinkMbps: 12, Jitter: 25 * time.Millisecond}
	Network3G   = NetworkProfile{Name: "3g", RTT: 180 * time.Millisecond, UplinkMbps: 1.5, Jitter: 60 * time.Millisecond}
)

// InferenceRequest is the offload wire format.
type InferenceRequest struct {
	API        string `json:"api"`
	PayloadLen int    `json:"payloadLen"`
}

// InferenceResponse carries the server's verdict and its compute time.
type InferenceResponse struct {
	API       string        `json:"api"`
	ServerGPU time.Duration `json:"serverGpuNs"`
	Result    string        `json:"result"`
}

// InferenceServer simulates a cloud ML endpoint: datacenter accelerators
// make the compute time small and *independent of the client device* —
// the consistency the paper credits offloading with.
type InferenceServer struct {
	// ComputeTime is the per-request server-side inference time.
	ComputeTime time.Duration
	ln          net.Listener
}

// NewInferenceServer returns a server with a 9 ms datacenter inference.
func NewInferenceServer() *InferenceServer {
	return &InferenceServer{ComputeTime: 9 * time.Millisecond}
}

// ServeHTTP implements http.Handler (POST /v1/infer).
func (s *InferenceServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/infer" {
		http.NotFound(w, r)
		return
	}
	var req InferenceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, ok := ByName(req.API); !ok {
		http.Error(w, "unknown API "+req.API, http.StatusBadRequest)
		return
	}
	// The datacenter compute happens in simulated time; the wire only
	// carries its value back.
	json.NewEncoder(w).Encode(InferenceResponse{
		API:       req.API,
		ServerGPU: s.ComputeTime,
		Result:    "ok",
	})
}

// Listen starts the endpoint on loopback.
func (s *InferenceServer) Listen() (baseURL string, shutdown func() error, err error) {
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("cloudml: %w", err)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(s.ln)
	return "http://" + s.ln.Addr().String(), func() error { return srv.Close() }, nil
}

// OffloadClient issues offloaded inferences and accounts the end-to-end
// latency in *simulated* time: network RTT + payload transfer + server
// compute (the real HTTP hop exercises the code path; its wall-clock cost
// is not part of the model).
type OffloadClient struct {
	BaseURL string
	Network NetworkProfile
	HTTP    *http.Client
	counter int
}

// NewOffloadClient builds a client over the given network profile.
func NewOffloadClient(baseURL string, network NetworkProfile) *OffloadClient {
	return &OffloadClient{
		BaseURL: baseURL,
		Network: network,
		HTTP:    &http.Client{Timeout: 30 * time.Second},
	}
}

// Infer offloads one request with the given payload size (e.g. a JPEG
// frame) and returns the simulated end-to-end latency.
func (c *OffloadClient) Infer(api string, payloadBytes int) (time.Duration, error) {
	req := InferenceRequest{API: api, PayloadLen: payloadBytes}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Post(c.BaseURL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("cloudml: offload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cloudml: offload status %d", resp.StatusCode)
	}
	var out InferenceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	transfer := time.Duration(float64(payloadBytes*8) / (c.Network.UplinkMbps * 1e6) * 1e9)
	jitter := time.Duration(c.counter%3) * c.Network.Jitter / 3
	c.counter++
	return c.Network.RTT + transfer + out.ServerGPU + jitter, nil
}
