package workloads

import (
	"runtime"
	"testing"
	"time"

	"snapify/internal/coi"
	"snapify/internal/phi"
	"snapify/internal/platform"
)

// TestShutdownReleasesPlatform pins the teardown leak: a host process that
// exits without Destroy (every Instance.Close) must not leave the daemon's
// connection handler parked in Recv once the platform is shut down — that
// goroutine holds the daemon, its platform and every file in its host FS
// for the life of the process.
func TestShutdownReleasesPlatform(t *testing.T) {
	before := runtime.NumGoroutine()
	plat, err := coi.Boot(platform.Config{Server: phi.ServerConfig{Devices: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ByCode("MD")
	in, err := Launch(plat, scaled(s, 2), 1)
	if err != nil {
		coi.Shutdown(plat)
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Error(err)
	}
	in.Close()
	coi.Shutdown(plat)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("%d goroutines before boot, %d after shutdown:\n%s", before, runtime.NumGoroutine(), stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
