// Span-style phase tracing. Spans form an aggregated tree — pipeline
// phases at the root, scan phases beneath them, countries beneath
// those — where same-named activations merge into one node carrying an
// activation count, a total duration, and a tally of outcome keys.
// Aggregation (rather than an event log) keeps the trace deterministic:
// the tree's shape and counts are a function of the work performed, not
// of the order workers happened to perform it.
package telemetry

import (
	"sync"
	"time"
)

// node is one name in the span tree. All fields are guarded by mu;
// nodes are created once and never removed.
type node struct {
	mu       sync.Mutex
	count    int64
	total    time.Duration
	outcomes map[string]int64
	children map[string]*node
}

func (n *node) child(name string) *node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.children == nil {
		n.children = map[string]*node{}
	}
	c := n.children[name]
	if c == nil {
		c = &node{}
		n.children[name] = c
	}
	return c
}

func (n *node) done(d time.Duration) {
	n.mu.Lock()
	n.count++
	n.total += d
	n.mu.Unlock()
}

func (n *node) outcome(key string) {
	n.mu.Lock()
	if n.outcomes == nil {
		n.outcomes = map[string]int64{}
	}
	n.outcomes[key]++
	n.mu.Unlock()
}

// Span is one live activation of a tree node. End it exactly once;
// starting the same name again later merges into the same node. A nil
// *Span no-ops, and spans started under it are nil too, so call sites
// never branch on whether telemetry is wired.
type Span struct {
	reg   *Registry
	n     *node
	start time.Time
}

// StartSpan opens a root-level span.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, n: r.root.child(name), start: r.Now()}
}

// StartSpan opens a child activation under s.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{reg: s.reg, n: s.n.child(name), start: s.reg.Now()}
}

// Outcome tallies one occurrence of key on the span's node — "ok", an
// outage reason, an error class. Call any number of times before End.
func (s *Span) Outcome(key string) {
	if s == nil {
		return
	}
	s.n.outcome(key)
}

// End closes the activation, folding its duration and count into the
// node.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.n.done(s.reg.Now().Sub(s.start))
}

// Record folds one finished child activation named name under s, with
// outcome tallied and duration d — for work timed where it ran, such as
// a unit executed on another goroutine or in another process.
func (s *Span) Record(name, outcome string, d time.Duration) {
	if s == nil {
		return
	}
	n := s.n.child(name)
	n.outcome(outcome)
	n.done(d)
}
