package fleet

import "github.com/gaugenn/gaugenn/internal/obs"

// Scheduler series. The per-device queue-depth gauges register lazily
// (device models arrive with the matrix), but every update happens under
// the schedQueue mutex with a pre-resolved handle — registration cost is
// paid once per model per process.
var (
	metUnits = obs.Default().Counter("gaugenn_fleet_units_total",
		"Matrix units served to completion.")
	metCooldowns = obs.Default().Counter("gaugenn_fleet_cooldowns_total",
		"Thermal cool-downs performed before jobs.")
	metRequeues = obs.Default().Counter("gaugenn_fleet_requeues_total",
		"Units returned to their queue after a failed or cancelled serve.")
	metExhausted = obs.Default().Counter("gaugenn_fleet_exhausted_total",
		"Units that exhausted their runners or attempt budget.")
)

// queueDepthGauge resolves the pending-unit gauge for one device model.
func queueDepthGauge(deviceModel string) *obs.Gauge {
	return obs.Default().Gauge("gaugenn_fleet_queue_depth",
		"Pending units per device-model queue.",
		obs.Label{Name: "device", Value: deviceModel})
}
