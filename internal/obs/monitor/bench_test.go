package monitor

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkObserveEpoch measures the monitor's full per-epoch path — frame
// fill, two sketch observations, store append, rule evaluation, idle live
// hub — which is the cost `make bench-monitor` bounds at
// experiments.MonitorOverheadMaxPct (5%) of the epoch loop. Must stay
// allocation-free.
func BenchmarkObserveEpoch(b *testing.B) {
	m := New(Options{})
	ro := m.Wrap(nil).BeginRun(testMeta)
	ev := obs.EpochEvent{Epoch: 1, TimeS: 0.001, PowerW: 80, BudgetW: 90, IPS: 5e10, OvershootW: 0, DecideNs: 12345, MaxTempK: 330}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Epoch = i
		ro.ShouldSample(i)
		ro.ObserveEpoch(&ev)
	}
}
