package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/mlrt"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// Agent is the device-side daemon of Figure 3's right column: it receives
// jobs over the adb channel, waits for USB power to drop, runs the
// headless benchmark against the simulated SoC, dials the master's WiFi
// listener with a completion notification and serves results on the next
// adb connection.
type Agent struct {
	Device *soc.Device
	// USB is the shared power/data switch; the agent refuses adb traffic
	// while the data channel is down, as a real device would.
	USB *power.USBSwitch
	// Monitor, when non-nil, integrates rail power during jobs (the
	// open-deck boards are the ones wired to the Monsoon).
	Monitor *power.Monitor
	// ScreenOn keeps the screen lit with the black-background app, as the
	// methodology requires ("we keep the phone screen on during the
	// benchmark"); its draw is measured and accounted.
	ScreenOn bool
	// MaxConns bounds the control connections *served* concurrently
	// (<= 0 means unbounded). Excess dials are still accepted — each
	// parks a goroutine waiting for a serve slot, so the accept loop
	// never blocks and Close stays responsive; the bound caps protocol
	// concurrency, not accepted sockets.
	MaxConns int
	// SelfPower makes the agent cycle its own USB switch around the
	// headless run instead of waiting for the master to cut power. A
	// remote master (a fleet pool driving benchd over TCP) has no handle
	// on the device-side switch, so the agent simulates the server's
	// switch command itself: cut on POWEROFF, restore before notifying.
	SelfPower bool
	// ReadTimeout bounds the wait for each control frame (0 = wait
	// forever, the pre-deadline behaviour). A master that dials and goes
	// silent — the mirror image of the deaf-agent hang — would otherwise
	// pin a connection goroutine (and, under MaxConns, a serve slot)
	// until the process dies; with a deadline the connection is reaped
	// and its slot freed.
	ReadTimeout time.Duration

	// mu guards the job maps AND serialises device access (job
	// execution, QUERY, COOL), so concurrent control connections —
	// e.g. two masters sharing one benchd — cannot race on the device.
	mu      sync.Mutex
	pending map[string]Job
	order   []string // pending job IDs in arrival order
	results map[string]JobResult

	ln net.Listener
}

// NewAgent wires an agent to a device.
func NewAgent(dev *soc.Device, usb *power.USBSwitch, mon *power.Monitor) *Agent {
	return &Agent{
		Device:   dev,
		USB:      usb,
		Monitor:  mon,
		ScreenOn: true,
		pending:  map[string]Job{},
		results:  map[string]JobResult{},
	}
}

// Start listens on a loopback "adb" endpoint and serves control
// connections until Close.
func (a *Agent) Start() (addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bench: agent listen: %w", err)
	}
	return a.Serve(ln), nil
}

// Serve serves control connections from a caller-provided listener until
// Close, returning its address. Fault harnesses use this to interpose a
// listener that drops or deafens connections; Start is the production
// path.
func (a *Agent) Serve(ln net.Listener) (addr string) {
	a.ln = ln
	var sem chan struct{}
	if a.MaxConns > 0 {
		sem = make(chan struct{}, a.MaxConns)
	}
	go func() {
		for {
			conn, err := a.ln.Accept()
			if err != nil {
				return
			}
			// The semaphore is acquired on the per-conn goroutine so the
			// accept loop never blocks: a saturated agent keeps accepting
			// (and noticing Close) while excess connections wait here.
			go func() {
				if sem != nil {
					sem <- struct{}{}
					defer func() { <-sem }()
				}
				a.serveConn(conn)
			}()
		}
	}()
	return a.ln.Addr().String()
}

// Close stops the agent.
func (a *Agent) Close() error {
	if a.ln != nil {
		return a.ln.Close()
	}
	return nil
}

func (a *Agent) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for {
		if a.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(a.ReadTimeout))
		}
		if !sc.Scan() {
			return
		}
		if a.USB != nil && !a.USB.DataOn() {
			return // USB data channel is down; connection dies
		}
		var env envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			a.reply(conn, "ERROR", err.Error())
			return
		}
		switch env.Kind {
		case msgJob:
			var job Job
			if err := json.Unmarshal(env.Payload, &job); err != nil {
				a.reply(conn, "ERROR", err.Error())
				return
			}
			a.mu.Lock()
			if _, dup := a.pending[job.ID]; !dup {
				a.order = append(a.order, job.ID)
			}
			a.pending[job.ID] = job
			a.mu.Unlock()
			a.reply(conn, msgReady, job.ID)
		case msgPowerOff:
			// The master is about to cut power; spawn the headless script
			// that waits for the drop and runs everything pending.
			var notifyAddr string
			_ = json.Unmarshal(env.Payload, &notifyAddr)
			go a.runHeadless(notifyAddr)
			a.reply(conn, msgOK, nil)
		case msgCollect:
			var id string
			_ = json.Unmarshal(env.Payload, &id)
			a.mu.Lock()
			res, ok := a.results[id]
			a.mu.Unlock()
			if !ok {
				a.reply(conn, "ERROR", fmt.Sprintf("no result for job %s", id))
				continue
			}
			a.reply(conn, msgResult, res)
		case msgClean:
			a.mu.Lock()
			a.pending = map[string]Job{}
			a.order = nil
			a.results = map[string]JobResult{}
			a.mu.Unlock()
			a.reply(conn, msgOK, nil)
		case msgQuery:
			a.mu.Lock()
			env := a.Device.Envelope()
			info := AgentInfo{
				Device:    a.Device.Model,
				SoC:       a.Device.SoC.Name,
				OpenDeck:  a.Device.OpenDeck,
				Backends:  mlrt.SupportedBackends(a.Device),
				HeatJ:     a.Device.Thermal.HeatJ,
				CapacityJ: env.CapacityJ,
			}
			a.mu.Unlock()
			a.reply(conn, msgInfo, info)
		case msgCool:
			// Thermal pacing: idle (in virtual time) until stored heat
			// drops to the requested level. Must not overlap a headless
			// run; fleet schedulers serialise per device.
			var targetJ float64
			_ = json.Unmarshal(env.Payload, &targetJ)
			a.mu.Lock()
			thermalEnv := a.Device.Envelope()
			dt := a.Device.Thermal.CooldownNeeded(thermalEnv, targetJ)
			if dt > 0 {
				a.Device.Idle(dt, a.ScreenOn, nil)
			}
			a.mu.Unlock()
			a.reply(conn, msgOK, int64(dt))
		default:
			a.reply(conn, "ERROR", "unknown message "+env.Kind)
		}
	}
}

func (a *Agent) reply(conn net.Conn, kind string, payload any) {
	b, err := encodeEnvelope(kind, payload)
	if err != nil {
		return
	}
	conn.Write(b)
}

// runHeadless is the unattended on-device script: wait for power-off, run
// all pending jobs, then turn WiFi on and notify the master.
func (a *Agent) runHeadless(notifyAddr string) {
	if a.USB != nil {
		if a.SelfPower {
			a.USB.SetPower(false)
		} else {
			<-a.USB.WaitPowerOff()
		}
	}
	// Drain in arrival order: within a batch the device heats up across
	// jobs, so execution order must be the push order, not map order.
	a.mu.Lock()
	jobs := make([]Job, 0, len(a.pending))
	for _, id := range a.order {
		if j, ok := a.pending[id]; ok {
			jobs = append(jobs, j)
		}
	}
	a.pending = map[string]Job{}
	a.order = nil
	a.mu.Unlock()

	for _, job := range jobs {
		res := a.executeJob(job)
		a.mu.Lock()
		a.results[job.ID] = res
		a.mu.Unlock()
	}
	if a.USB != nil && a.SelfPower {
		a.USB.SetPower(true) // restore adb so the master can collect
	}

	// "it turns on WiFi upon completion and communicates a TCP message
	// through netcat to the server".
	if notifyAddr != "" {
		if conn, err := net.DialTimeout("tcp", notifyAddr, 5*time.Second); err == nil {
			b, _ := encodeEnvelope(msgDone, len(jobs))
			conn.Write(b)
			conn.Close()
		}
	}
}

// executeJob runs warmup + measured inferences on the simulated device.
// It holds a.mu for the whole run: the device (clock, thermal state,
// monitor wiring) is a single physical resource, so job execution excludes
// the QUERY/COOL handlers and any concurrently prepared batch.
func (a *Agent) executeJob(job Job) JobResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	metJobs.Inc()
	start := time.Now()
	defer func() { metJobSeconds.ObserveDuration(time.Since(start)) }()
	res := JobResult{ID: job.ID, ModelName: job.ModelName, Device: a.Device.Model, Backend: job.Backend}
	fail := func(err error) JobResult {
		metJobFailures.Inc()
		res.Error = err.Error()
		return res
	}
	g, ok, err := formats.DecodeFile(job.Model)
	if err == nil && !ok {
		err = fmt.Errorf("bench: model bytes match no registered format")
	}
	if err != nil {
		return fail(err)
	}
	eng, err := mlrt.NewEngine(a.Device, job.Backend)
	if err != nil {
		return fail(err)
	}
	sess, err := eng.Load(g, mlrt.Options{Threads: job.Threads, Affinity: job.Affinity, Batch: job.Batch, Execute: job.Execute})
	if err != nil {
		return fail(err)
	}
	var sink soc.PowerSink
	if a.Monitor != nil {
		a.Monitor.Reset()
		sink = a.Monitor
	}
	warmup := job.Warmup
	if warmup <= 0 {
		warmup = 2
	}
	runs := job.Runs
	if runs <= 0 {
		runs = 10
	}
	for i := 0; i < warmup; i++ {
		if _, err := sess.Infer(sink); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < runs; i++ {
		r, err := sess.Infer(sink)
		if err != nil {
			return fail(err)
		}
		res.LatenciesNS = append(res.LatenciesNS, int64(r.Latency))
		res.EnergiesMJ = append(res.EnergiesMJ, r.EnergymJ())
		res.FLOPs = r.FLOPs
		res.FallbackOps = r.FallbackOps
		res.PeakMemBytes = r.PeakMemBytes
		res.CPUUtil = r.CPUUtil
		res.Throttled = res.Throttled || r.Throttled
		if r.OutputDigest != "" {
			// Measured runs must be deterministic: the digest is a pure
			// function of (model, batch), so any drift between runs is an
			// interpreter bug and the job's numbers cannot be trusted.
			if res.OutputDigest != "" && res.OutputDigest != r.OutputDigest {
				return fail(fmt.Errorf("bench: output digest changed between measured runs (%s then %s)",
					res.OutputDigest[:12], r.OutputDigest[:12]))
			}
			res.OutputDigest = r.OutputDigest
		}
		if job.SleepBetween > 0 {
			a.Device.Idle(job.SleepBetween, a.ScreenOn, sink)
		}
	}
	// Executed jobs bypass the simulated rails, so the monitor integrates
	// nothing; their average power comes from the estimated energies below.
	if a.Monitor != nil && !job.Execute {
		res.MonitorEnergyMJ = a.Monitor.EnergyJ() * 1000
		res.AvgPowerW = a.Monitor.AvgWatts()
	} else if n := len(res.EnergiesMJ); n > 0 {
		res.AvgPowerW = res.MeanEnergymJ() / 1000 / res.MeanLatency().Seconds()
	}
	return res
}
