// Package cost is the embedded tier's round ledger: a hierarchical tree
// of spans that is the single source of truth for every base-graph round
// the embedded-tier algorithms charge (DESIGN.md §3, system S21).
//
// Each Span accumulates integer round amounts in its own unit (base
// rounds, G0 rounds, routing steps, …) and carries a multiplier Mul that
// converts one round of its unit into the parent span's unit. A span's
// Total is its directly charged amount plus its children rolled up
// through their multipliers, so the emulation-factor multiplication
// chains of Lemmas 3.1/3.2/3.4 (one Gℓ round = EmulationRounds rounds of
// G_{ℓ−1}, one MST tree step = one measured routing instance, …) become
// tree structure instead of arithmetic repeated at call sites.
//
// Layers open and close spans in a stack discipline through a Ledger.
// CloseExpect turns the call site's legacy formula into a checked
// identity: the ledger records a violation whenever the rolled-up span
// total disagrees with the expected value, so scattered accounting can
// never silently drift from the exported breakdown. Finished spans from
// one ledger may be grafted into another with Attach (a routing run's
// ledger becomes the per-step breakdown of an MST iteration; an MST's
// algorithm span becomes the per-tree cost of a min-cut packing).
//
// A span with Mul == 0 is informational: it is exported with the
// breakdown but contributes nothing to its parent (used for the measured
// per-level emulation factors, which are conversion rates, not charges).
package cost

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// now is the ledger's clock, swappable by tests for deterministic
// wall-time assertions. time.Time carries a monotonic reading, so span
// wall times are immune to wall-clock steps.
var now = time.Now

// Span is one node of the cost tree. Amounts are integers in the span's
// own unit; Mul converts one unit of this span into the parent's unit.
type Span struct {
	// Name identifies the span within its parent.
	Name string
	// Unit documents what one round of this span means (e.g. "base
	// rounds", "G0 rounds", "routing steps").
	Unit string
	// Self is the amount charged directly to this span, excluding
	// children.
	Self int
	// Mul is the cost of one unit of this span in the parent's unit.
	// Zero marks an informational span that rolls nothing into the
	// parent.
	Mul int
	// Children are the sub-spans, in creation order. They roll into
	// this span's Total through their own Mul factors.
	Children []*Span

	// wallNS is the measured host time the span was open under a Ledger
	// (Open → Close, inclusive of children), in nanoseconds. It pairs
	// every simulated-round figure with its wall-clock analogue. Spans
	// created by NewChild and never ledger-opened stay at 0. Deliberately
	// excluded from Row: -trace exports must stay byte-deterministic, so
	// wall times travel through FlattenWall into -metrics snapshots
	// instead.
	wallNS int64
	// opened is the Ledger.Open timestamp, zero once closed.
	opened time.Time
}

// NewChild appends and returns a child span. Unlike Ledger.Open it does
// not touch any stack, so callers may hold the pointer and Add to it out
// of order (aggregation spans charged from within a recursion).
func (s *Span) NewChild(name, unit string, mul int) *Span {
	c := &Span{Name: name, Unit: unit, Mul: mul}
	s.Children = append(s.Children, c)
	return c
}

// Add charges n rounds (in this span's unit) directly to the span. A nil
// span ignores the charge, so optional accounting costs one nil check.
func (s *Span) Add(n int) {
	if s == nil {
		return
	}
	s.Self += n
}

// Total is the span's cost in its own unit: Self plus every child rolled
// up through the child's multiplier. A nil span totals zero.
func (s *Span) Total() int {
	if s == nil {
		return 0
	}
	t := s.Self
	for _, c := range s.Children {
		t += c.Rolled()
	}
	return t
}

// Rolled is the span's contribution to its parent: Mul · Total.
func (s *Span) Rolled() int {
	if s == nil {
		return 0
	}
	return s.Mul * s.Total()
}

// Wall returns the measured host time the span was open under a Ledger
// (inclusive of children). Zero for spans never ledger-opened, still
// open, or nil.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.wallNS)
}

// Child returns the first child with the given name, or nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Row is one flattened span for export: the slash-joined path from the
// root, the span's own-unit amounts, and its rolled-up contribution.
type Row struct {
	Path   string `json:"path"`
	Unit   string `json:"unit,omitempty"`
	Depth  int    `json:"depth"`
	Self   int    `json:"self"`
	Mul    int    `json:"mul"`
	Total  int    `json:"total"`
	Rolled int    `json:"rolled"`
}

// Flatten renders the span tree as rows in depth-first pre-order.
func Flatten(s *Span) []Row {
	var rows []Row
	var walk func(sp *Span, prefix string, depth int)
	walk = func(sp *Span, prefix string, depth int) {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		rows = append(rows, Row{
			Path:   path,
			Unit:   sp.Unit,
			Depth:  depth,
			Self:   sp.Self,
			Mul:    sp.Mul,
			Total:  sp.Total(),
			Rolled: sp.Rolled(),
		})
		for _, c := range sp.Children {
			walk(c, path, depth+1)
		}
	}
	if s != nil {
		walk(s, "", 0)
	}
	return rows
}

// Ledger builds a span tree with open/close stack discipline and records
// invariant violations instead of panicking, so algorithm code can
// surface them as ordinary errors after the run.
type Ledger struct {
	// Root is the tree's root span, created by New.
	Root *Span
	// stack holds the open spans, Root first. Empty once Root closes.
	stack []*Span
	// violations collects CloseExpect mismatches and stack misuse.
	violations []string
}

// New returns a ledger whose root span is open and current.
func New(name, unit string) *Ledger {
	root := &Span{Name: name, Unit: unit, Mul: 1, opened: now()}
	return &Ledger{Root: root, stack: []*Span{root}}
}

// Current returns the innermost open span, or nil when all spans are
// closed (or the ledger is nil).
func (l *Ledger) Current() *Span {
	if l == nil || len(l.stack) == 0 {
		return nil
	}
	return l.stack[len(l.stack)-1]
}

// path renders the open stack as a slash-joined span path.
func (l *Ledger) path() string {
	names := make([]string, len(l.stack))
	for i, s := range l.stack {
		names[i] = s.Name
	}
	return strings.Join(names, "/")
}

// violate records an invariant violation.
func (l *Ledger) violate(format string, args ...any) {
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
}

// Open creates a child of the current span and makes it current. Opening
// on a fully closed ledger records a violation and returns a detached
// span so callers stay panic-free.
func (l *Ledger) Open(name, unit string, mul int) *Span {
	if l == nil {
		return nil
	}
	cur := l.Current()
	if cur == nil {
		l.violate("cost: Open(%q) after the root span closed", name)
		return &Span{Name: name, Unit: unit, Mul: mul}
	}
	c := cur.NewChild(name, unit, mul)
	c.opened = now()
	l.stack = append(l.stack, c)
	return c
}

// Charge adds n rounds to the current span.
func (l *Ledger) Charge(n int) {
	if l == nil {
		return
	}
	cur := l.Current()
	if cur == nil {
		l.violate("cost: Charge(%d) with no open span", n)
		return
	}
	cur.Self += n
}

// Attach grafts a finished span (typically another ledger's root) as a
// child of the current span. The attached span's Mul applies as usual.
func (l *Ledger) Attach(s *Span) {
	if l == nil || s == nil {
		return
	}
	cur := l.Current()
	if cur == nil {
		l.violate("cost: Attach(%q) with no open span", s.Name)
		return
	}
	cur.Children = append(cur.Children, s)
}

// Close closes the current span and returns its Total (own units).
func (l *Ledger) Close() int {
	if l == nil {
		return 0
	}
	cur := l.Current()
	if cur == nil {
		l.violate("cost: Close with no open span")
		return 0
	}
	if !cur.opened.IsZero() {
		cur.wallNS += now().Sub(cur.opened).Nanoseconds()
		cur.opened = time.Time{}
	}
	l.stack = l.stack[:len(l.stack)-1]
	return cur.Total()
}

// CloseExpect closes the current span, checking the close-time identity:
// the span's rolled-up Total must equal want (in the span's own unit).
// A mismatch is recorded as a violation; the actual total is returned
// either way.
func (l *Ledger) CloseExpect(want int) int {
	if l == nil {
		return 0
	}
	path := l.path()
	got := l.Close()
	if got != want {
		l.violate("cost: span %s totals %d rounds, call site expected %d", path, got, want)
	}
	return got
}

// Err reports every recorded invariant violation, or nil.
func (l *Ledger) Err() error {
	if l == nil || len(l.violations) == 0 {
		return nil
	}
	return errors.New(strings.Join(l.violations, "; "))
}

// Rows flattens the whole ledger for export (depth-first pre-order).
func (l *Ledger) Rows() []Row {
	if l == nil {
		return nil
	}
	return Flatten(l.Root)
}

// WallRow pairs a flattened span path with its measured host time. The
// Path values coincide index for index with Flatten's, so every
// simulated-round row a trace exports has a same-path wall entry for the
// metrics snapshot.
type WallRow struct {
	Path   string
	WallNS int64
}

// FlattenWall renders the span tree's host times in the same depth-first
// pre-order (and with the same paths) as Flatten.
func FlattenWall(s *Span) []WallRow {
	var rows []WallRow
	var walk func(sp *Span, prefix string)
	walk = func(sp *Span, prefix string) {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		rows = append(rows, WallRow{Path: path, WallNS: sp.wallNS})
		for _, c := range sp.Children {
			walk(c, path)
		}
	}
	if s != nil {
		walk(s, "")
	}
	return rows
}

// WallGaps lists every span under s, s included, whose wall time falls
// short of its children's summed walls by more than slack, one
// "path: wall W below its children's sum S" entry each. Children run one
// after another inside their parent, so a gap means a span was opened
// after work its children measured.
func WallGaps(s *Span, slack time.Duration) []string {
	var gaps []string
	var walk func(sp *Span, path string)
	walk = func(sp *Span, path string) {
		var sum time.Duration
		for _, c := range sp.Children {
			sum += c.Wall()
			walk(c, path+"/"+c.Name)
		}
		if sp.Wall()+slack < sum {
			gaps = append(gaps, fmt.Sprintf("%s: wall %v below its children's sum %v", path, sp.Wall(), sum))
		}
	}
	if s != nil {
		walk(s, s.Name)
	}
	return gaps
}

// WallRows flattens the whole ledger's host times (depth-first
// pre-order, paths matching Rows).
func (l *Ledger) WallRows() []WallRow {
	if l == nil {
		return nil
	}
	return FlattenWall(l.Root)
}
