// Package platformtest is the shared test harness for suites that need
// a running platform: it boots a simulated server (coi.Boot) and
// registers teardown with the test. The core, fleetd, and chaos suites
// all build their platforms here.
//
// It lives in its own package (not platform's test files) because the
// COI layer imports platform — only a separate package can wire both
// sides together for everyone.
package platformtest

import (
	"testing"

	"snapify/internal/coi"
	"snapify/internal/phi"
	"snapify/internal/platform"
)

// Options configures a test platform. The zero value is one card with
// the default memory — the smallest useful server.
type Options struct {
	// Devices is the card count; 0 means 1.
	Devices int
	// CardMem is each card's physical memory in bytes; 0 uses the phi
	// default.
	CardMem int64
	// NoSnapify builds the COI runtime without the Snapify pause
	// instrumentation (the Fig 9 baseline).
	NoSnapify bool
}

// Start assembles a platform, starts its COI daemons, and registers
// cleanup with t. Fatal on any setup failure.
func Start(t testing.TB, opts Options) *platform.Platform {
	t.Helper()
	devices := opts.Devices
	if devices == 0 {
		devices = 1
	}
	plat, err := coi.Boot(platform.Config{
		Server: phi.ServerConfig{
			Devices: devices,
			Device:  phi.DeviceConfig{MemBytes: opts.CardMem},
		},
		NoSnapify: opts.NoSnapify,
	})
	if err != nil {
		t.Fatalf("platformtest: booting platform: %v", err)
	}
	t.Cleanup(func() { coi.Shutdown(plat) })
	return plat
}
