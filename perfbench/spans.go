package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcast/internal/query"
)

// span is one timed interval. Spans of one request share req; parent is
// the index of the enclosing span in the recorder, -1 for a root.
type span struct {
	req        int32
	parent     int32
	name       uint8
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory for one single-threaded replay stream
// (plus spans timed elsewhere and added whole). A nil *recorder records
// nothing, so untimed replays share the code path.
type recorder struct {
	epoch time.Time
	names []string
	index map[string]uint8
	spans []span
	open  []int32
	req   int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), index: make(map[string]uint8)}
}

func (r *recorder) nameID(name string) uint8 {
	id, ok := r.index[name]
	if !ok {
		id = uint8(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	return id
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{req: r.req, parent: parent, name: r.nameID(name), start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// add records a span timed elsewhere and returns its index.
func (r *recorder) add(req, parent int32, name string, start, end time.Time) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{req: req, parent: parent, name: r.nameID(name), start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))})
	return id
}

// splice returns q behind a timing querier recording a span named name
// around every Query call, or q itself on a nil recorder.
func (r *recorder) splice(name string, q query.Querier) query.Querier {
	if r == nil {
		return q
	}
	return &timedQuerier{rec: r, name: name, q: q}
}

// timedQuerier is the benchmark's layer splice: it forwards every call
// to the layer below and records a span around each Query.
type timedQuerier struct {
	rec  *recorder
	name string
	q    query.Querier
}

func (t *timedQuerier) Query(bin []int) query.Response {
	id := t.rec.begin(t.name)
	resp := t.q.Query(bin)
	t.rec.end(id)
	return resp
}

func (t *timedQuerier) Traits() query.Traits { return t.q.Traits() }

func (t *timedQuerier) Unwrap() query.Querier { return t.q }

// TraceRound forwards the algorithms' round-boundary hook. The auditor
// below resets its shadow ledger on it, so a splice that swallowed the
// hook would change the audit's verdicts.
func (t *timedQuerier) TraceRound(round int) {
	if rt, ok := t.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(round)
	}
}

// layerTime is one span name's total self time and span count.
type layerTime struct {
	self  time.Duration
	count int
}

// selfTimes returns each span name's summed self time: a span's duration
// minus the durations of its direct children. It also checks that, below
// every span named root, the self times add up to the root's duration.
func selfTimes(names []string, spans []span, root string) (map[string]layerTime, error) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	under := make(map[int32]int64) // root span index -> summed self times below it
	for i, s := range spans {
		self := s.end - s.start - child[i]
		lt := out[names[s.name]]
		lt.self += time.Duration(self)
		lt.count++
		out[names[s.name]] = lt
		for a := int32(i); a >= 0; a = spans[a].parent {
			if names[spans[a].name] == root {
				under[a] += self
				break
			}
		}
	}
	for a, sum := range under {
		if d := spans[a].end - spans[a].start; sum != d {
			return nil, fmt.Errorf("span %d (%s): self times below it sum to %dns, its duration is %dns", a, root, sum, d)
		}
	}
	return out, nil
}

// write dumps the spans to <work>/spans/<workload>-<seed>.tsv as
// tab-separated text: one header line, then one line per span.
func (r *recorder) write(o options) error {
	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", o.workload, o.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, r.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
