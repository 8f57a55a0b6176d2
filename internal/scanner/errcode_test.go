package scanner

import "testing"

// The telemetry layer labels per-code counters with ErrCode.String()
// (metrics.go) and per-outage counters with OutageReason.String()
// (scan.go). A new code whose String falls through to "unknown" would
// silently merge distinct failure modes into one counter series, so
// adding a code without a label is a test failure, not a runtime
// surprise.

func TestErrCodeStringsAreExhaustive(t *testing.T) {
	seen := map[string]ErrCode{}
	for c := ErrCode(0); c < ErrCode(errCodeCount); c++ {
		s := c.String()
		if s == "unknown" || s == "" {
			t.Errorf("ErrCode(%d) has no String label; extend the switch and errCodeCount together", c)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ErrCode(%d) and ErrCode(%d) share the label %q", prev, c, s)
		}
		seen[s] = c
	}
	if got := ErrCode(errCodeCount).String(); got != "unknown" {
		t.Errorf("ErrCode(errCodeCount).String() = %q; errCodeCount is stale, bump it to cover the new code", got)
	}
}

func TestOutageReasonStringsAreExhaustive(t *testing.T) {
	seen := map[string]OutageReason{}
	for r := OutageNone; r <= OutageDark; r++ {
		s := r.String()
		if s == "unknown" {
			t.Errorf("OutageReason(%d) has no String label", r)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("OutageReason(%d) and OutageReason(%d) share the label %q", prev, r, s)
		}
		seen[s] = r
	}
	if got := (OutageDark + 1).String(); got != "unknown" {
		t.Errorf("OutageReason one past OutageDark = %q; this test's upper bound is stale", got)
	}
}
