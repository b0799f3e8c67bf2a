package bench

import "testing"

func TestFleetExperiment(t *testing.T) {
	r, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages != uint64(2*r.Sessions*r.Rounds) {
		t.Fatalf("messages = %d, want %d", r.Messages, 2*r.Sessions*r.Rounds)
	}
	if r.FairnessJain <= 0 || r.FairnessJain > 1 {
		t.Fatalf("fairness index %.4f out of (0, 1]", r.FairnessJain)
	}
	if r.MergedTraceSHA256 == "" || r.FleetSummarySHA256 == "" || r.FleetCausalSHA256 == "" {
		t.Fatal("missing export digest")
	}
	var idle uint64
	for _, m := range r.PerMachine {
		if m.LogAppends != uint64(r.LocalLogs) {
			t.Fatalf("machine %d made %d log appends, want %d", m.Machine, m.LogAppends, r.LocalLogs)
		}
		idle += m.IdleCycles
	}
	// The busiest machine may never park, but somebody must have waited on
	// the fabric or the link latency did nothing.
	if idle == 0 || r.IdleJumps == 0 {
		t.Fatalf("no idle waiting anywhere (idle=%d jumps=%d)", idle, r.IdleJumps)
	}
}

// The fleet analogue of TestMeasurementsAreDeterministic, and the one
// fleet determinism gate: the whole result — cycle counts, fairness, and
// the digests of all three exports (Chrome trace, Prometheus page, causal
// view) — must be byte-stable across runs and across host parallelism.
func TestFleetDeterministic(t *testing.T) {
	checkDeterministic(t, "fleet", Fleet)
}
