package netsim

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkSimulatorPing times one ping measurement end to end: RNG
// derivation, path plan, last-mile and wired draws, record assembly.
func BenchmarkSimulatorPing(b *testing.B) {
	probes := scFleet.All()
	regions := testW.Inventory.Regions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testSim.Ping(probes[i%len(probes)], regions[(i*7)%len(regions)], dataset.TCP, i%4)
	}
}

// BenchmarkSimulatorTraceroute times one traceroute measurement,
// including the per-hop draws and router addressing.
func BenchmarkSimulatorTraceroute(b *testing.B) {
	probes := scFleet.All()
	regions := testW.Inventory.Regions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testSim.Traceroute(probes[i%len(probes)], regions[(i*7)%len(regions)], i%4)
	}
}
