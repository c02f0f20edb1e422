package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// Runner is one benchmark rig the pool schedules onto: a device plus the
// master-side choreography to drive it. Jobs on one runner are serialized
// by the scheduler; Cooldown restores the deterministic pre-job thermal
// state the fleet's byte-identical-output contract relies on. Run and
// Cooldown honour their context: a cancelled fleet run aborts in-flight
// choreography (dials, handshakes, notification waits) promptly.
type Runner interface {
	ID() string
	DeviceModel() string
	Run(ctx context.Context, job bench.Job) (bench.JobResult, error)
	Cooldown(ctx context.Context, targetJ float64) error
	Close() error
}

// AgentRunner drives a bench.Agent through the full Figure 3 TCP
// choreography. It serves both pool flavours: NewLocalRunner spins up an
// in-process agent rig (device + USB switch + Monsoon-style monitor);
// NewRemoteRunner attaches to a benchd endpoint elsewhere.
type AgentRunner struct {
	id     string
	device string
	master *bench.Master
	agent  *bench.Agent // owned in-process agent; nil for remote rigs
}

// NewLocalRunner builds a self-contained in-process rig for one device
// model.
func NewLocalRunner(id, deviceModel string) (*AgentRunner, error) {
	dev, err := soc.NewDevice(deviceModel)
	if err != nil {
		return nil, err
	}
	usb := power.NewUSBSwitch()
	mon := power.NewMonitor()
	agent := bench.NewAgent(dev, usb, mon)
	addr, err := agent.Start()
	if err != nil {
		return nil, err
	}
	return &AgentRunner{
		id:     id,
		device: deviceModel,
		master: bench.NewMaster(addr, usb),
		agent:  agent,
	}, nil
}

// NewRemoteRunner attaches to a running benchd agent and discovers its
// device identity over the control channel. ctx bounds the discovery
// dial+query; dialTimeout bounds each later dial (0 keeps the master's
// 5 s default); jobTimeout bounds each benchmark round (0 keeps the 120 s
// default).
func NewRemoteRunner(ctx context.Context, id, addr string, dialTimeout, jobTimeout time.Duration) (*AgentRunner, error) {
	master := bench.NewMaster(addr, nil)
	master.DialTimeout = dialTimeout
	if jobTimeout > 0 {
		master.Timeout = jobTimeout
	}
	info, err := master.Query(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet: querying agent %s: %w", addr, err)
	}
	return &AgentRunner{id: id, device: info.Device, master: master}, nil
}

// ID returns the pool-unique runner label.
func (r *AgentRunner) ID() string { return r.id }

// DeviceModel returns the Table 1 device model the rig benchmarks.
func (r *AgentRunner) DeviceModel() string { return r.device }

// Run executes one job through the full master-slave workflow.
func (r *AgentRunner) Run(ctx context.Context, job bench.Job) (bench.JobResult, error) {
	res, err := r.master.RunJobs(ctx, []bench.Job{job})
	if err != nil {
		return bench.JobResult{}, err
	}
	if len(res) != 1 {
		return bench.JobResult{}, fmt.Errorf("fleet: agent returned %d results for one job", len(res))
	}
	return res[0], nil
}

// Cooldown idles the device until its stored heat is at most targetJ.
func (r *AgentRunner) Cooldown(ctx context.Context, targetJ float64) error {
	_, err := r.master.CoolDevice(ctx, targetJ)
	return err
}

// Close shuts down an owned in-process agent; remote agents are left
// running (benchd owns its own lifecycle).
func (r *AgentRunner) Close() error {
	if r.agent != nil {
		return r.agent.Close()
	}
	return nil
}
