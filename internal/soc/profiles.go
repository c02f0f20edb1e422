package soc

import (
	"fmt"
	"time"
)

// Device model identifiers of Table 1.
const (
	DeviceA20  = "A20"  // Samsung Galaxy A20 (Exynos 7884), low tier
	DeviceA70  = "A70"  // Samsung Galaxy A70 (Snapdragon 675), mid tier
	DeviceS21  = "S21"  // Samsung Galaxy S21 (Snapdragon 888), high tier
	DeviceQ845 = "Q845" // Qualcomm Snapdragon 845 HDK, open deck
	DeviceQ855 = "Q855" // Qualcomm Snapdragon 855 HDK, open deck
	DeviceQ888 = "Q888" // Qualcomm Snapdragon 888 HDK, open deck
)

// NewDevice instantiates a fresh device of the given Table 1 model.
// Throughput and power figures are calibrated so the population-level
// results of Figures 8-14 land near the paper's ratios; they are not
// vendor datasheet numbers.
func NewDevice(model string) (*Device, error) {
	switch model {
	case DeviceA20:
		return &Device{
			Model: model,
			SoC: &SoC{
				Name: "Exynos 7884",
				Islands: []Island{
					{CoreType{"Cortex-A73@1.6", 2.9, 0.85}, 2},
					{CoreType{"Cortex-A53@1.35", 1.15, 0.30}, 6},
				},
				MemBWGBps:          6,
				BasePowerWatts:     0.55,
				GPU:                &Accelerator{Name: "Mali-G71 MP2", GFLOPS: 3.6, ActiveWatts: 1.1, DispatchOverhead: 60 * time.Microsecond},
				NNAPIDriverQuality: 0.55,
			},
			RAMGB: 4, BatterymAh: 4000, ScreenWatts: 0.45, VendorFactor: 0.96,
		}, nil
	case DeviceA70:
		return &Device{
			Model: model,
			SoC: &SoC{
				Name: "Snapdragon 675",
				Islands: []Island{
					{CoreType{"Kryo460-Gold@2.0", 7.0, 1.30}, 2},
					{CoreType{"Kryo460-Silver@1.7", 1.5, 0.35}, 6},
				},
				MemBWGBps:          12,
				BasePowerWatts:     0.60,
				GPU:                &Accelerator{Name: "Adreno 612", GFLOPS: 7.5, ActiveWatts: 1.2, DispatchOverhead: 50 * time.Microsecond},
				NNAPIDriverQuality: 0.75,
				Qualcomm:           true,
			},
			RAMGB: 6, BatterymAh: 4500, ScreenWatts: 0.50, VendorFactor: 0.97,
		}, nil
	case DeviceS21:
		d := snapdragon888Device(model)
		d.BatterymAh = 4000
		d.ScreenWatts = 0.55
		d.OpenDeck = false
		// Vendor OS image, preinstalled services and tighter thermals cost
		// a few percent against the open-deck Q888 (Section 5.1).
		d.VendorFactor = 0.95
		return d, nil
	case DeviceQ845:
		return &Device{
			Model: model,
			SoC: &SoC{
				Name: "Snapdragon 845",
				Islands: []Island{
					{CoreType{"Kryo385-Gold@2.8", 3.0, 1.05}, 4},
					{CoreType{"Kryo385-Silver@1.77", 1.0, 0.30}, 4},
				},
				MemBWGBps:      15,
				BasePowerWatts: 0.70,
				GPU:            &Accelerator{Name: "Adreno 630", GFLOPS: 20, ActiveWatts: 0.75, DispatchOverhead: 45 * time.Microsecond},
				DSP:            &Accelerator{Name: "Hexagon 685", GFLOPS: 95, ActiveWatts: 0.70, DispatchOverhead: 55 * time.Microsecond, Int8Only: true},
				// Q845's NNAPI path measured 0.49x the plain CPU speed.
				NNAPIDriverQuality: 0.49,
				Qualcomm:           true,
			},
			RAMGB: 8, BatterymAh: 2850, ScreenWatts: 0.40, OpenDeck: true, VendorFactor: 1.0,
		}, nil
	case DeviceQ855:
		return &Device{
			Model: model,
			SoC: &SoC{
				Name: "Snapdragon 855",
				Islands: []Island{
					{CoreType{"Kryo485-Prime@2.84", 4.2, 1.40}, 1},
					{CoreType{"Kryo485-Gold@2.42", 3.6, 1.18}, 3},
					{CoreType{"Kryo485-Silver@1.8", 1.1, 0.30}, 4},
				},
				MemBWGBps:          17,
				BasePowerWatts:     0.75,
				GPU:                &Accelerator{Name: "Adreno 640", GFLOPS: 27, ActiveWatts: 0.85, DispatchOverhead: 42 * time.Microsecond},
				DSP:                &Accelerator{Name: "Hexagon 690", GFLOPS: 130, ActiveWatts: 0.75, DispatchOverhead: 50 * time.Microsecond, Int8Only: true},
				NNAPIDriverQuality: 0.70,
				Qualcomm:           true,
			},
			RAMGB: 8, BatterymAh: 0, ScreenWatts: 0.40, OpenDeck: true, VendorFactor: 1.0,
		}, nil
	case DeviceQ888:
		d := snapdragon888Device(model)
		d.BatterymAh = 0
		d.ScreenWatts = 0.40
		d.OpenDeck = true
		d.VendorFactor = 1.0
		return d, nil
	default:
		return nil, fmt.Errorf("soc: unknown device model %q (Table 1 lists A20, A70, S21, Q845, Q855, Q888)", model)
	}
}

// snapdragon888Device is shared by the S21 and the Q888 HDK — the paper's
// same-silicon pair.
func snapdragon888Device(model string) *Device {
	return &Device{
		Model: model,
		SoC: &SoC{
			Name: "Snapdragon 888",
			Islands: []Island{
				{CoreType{"Cortex-X1@2.84", 7.5, 2.30}, 1},
				{CoreType{"Cortex-A78@2.42", 5.5, 1.65}, 3},
				{CoreType{"Cortex-A55@1.8", 1.2, 0.38}, 4},
			},
			MemBWGBps:          34,
			BasePowerWatts:     0.85,
			GPU:                &Accelerator{Name: "Adreno 660", GFLOPS: 42, ActiveWatts: 1.0, DispatchOverhead: 38 * time.Microsecond},
			DSP:                &Accelerator{Name: "Hexagon 780", GFLOPS: 200, ActiveWatts: 0.80, DispatchOverhead: 45 * time.Microsecond, Int8Only: true},
			NNAPIDriverQuality: 0.85,
			Qualcomm:           true,
		},
		RAMGB: 8,
	}
}

// AllDeviceModels lists Table 1's device identifiers in tier order.
func AllDeviceModels() []string {
	return []string{DeviceA20, DeviceA70, DeviceS21, DeviceQ845, DeviceQ855, DeviceQ888}
}

// HDKModels lists the three open-deck boards used for energy work.
func HDKModels() []string {
	return []string{DeviceQ845, DeviceQ855, DeviceQ888}
}
