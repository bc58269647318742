package trace_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tcast/internal/rng"
	"tcast/internal/trace"
)

// randomTrace builds a pseudo-random but deterministic span forest, used
// by the round-trip property test below.
func randomTrace(r *rng.Source) *trace.Trace {
	b := trace.NewBuilder()
	b.SetMeta(trace.StringAttr("cmd", "prop"), trace.Int64Attr("seed", 42))
	roots := 1 + r.Intn(3)
	for i := 0; i < roots; i++ {
		b.Begin(trace.KindExperiment, "exp")
		depth := 1 + r.Intn(3)
		for d := 0; d < depth; d++ {
			sp := b.Begin(trace.SpanKind(1+r.Intn(trace.NumSpanKinds-1)), "span")
			b.Advance(int64(r.Intn(10)))
			if r.Intn(2) == 0 {
				sp.SetAttr(
					trace.IntAttr("x", r.Intn(100)),
					trace.FloatAttr("f", float64(r.Intn(1000))/7),
					trace.BoolAttr("b", r.Intn(2) == 0),
				)
			}
		}
		for d := 0; d < depth; d++ {
			b.End()
		}
		b.End()
	}
	return b.Trace()
}

// TestCodecRoundTripProperty is the encode→decode→encode property: for
// many pseudo-random traces the second encoding must be byte-identical to
// the first — the invariant behind same-seed trace files comparing equal.
func TestCodecRoundTripProperty(t *testing.T) {
	root := rng.New(2011)
	for i := 0; i < 50; i++ {
		tr := randomTrace(root.Split(uint64(i)))
		enc1, err := trace.EncodeBytes(tr)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		dec, err := trace.Decode(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		enc2, err := trace.EncodeBytes(dec)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("case %d: encode→decode→encode not byte-identical:\n%s\nvs\n%s", i, enc1, enc2)
		}
		if d := trace.Diff(tr, dec); !d.Identical {
			t.Fatalf("case %d: decoded trace differs: %s", i, d)
		}
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	tr := randomTrace(rng.New(5))
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(tr, got); !d.Identical {
		t.Fatalf("file round trip differs: %s", d)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	header := `{"schema":"tcast-trace","version":1,"unit":"slot"}`
	for name, input := range map[string]string{
		"empty":          "",
		"wrong schema":   `{"schema":"nope","version":1}`,
		"wrong version":  `{"schema":"tcast-trace","version":99}`,
		"bad json":       header + "\n{not json",
		"unknown kind":   header + "\n" + `{"id":0,"parent":-1,"kind":"warp","name":"x","start":0,"end":1}`,
		"unseen parent":  header + "\n" + `{"id":0,"parent":7,"kind":"poll","name":"x","start":0,"end":1}`,
		"id out of step": header + "\n" + `{"id":3,"parent":-1,"kind":"poll","name":"x","start":0,"end":1}`,
	} {
		if _, err := trace.Decode(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDiffReportsFirstDivergence(t *testing.T) {
	// Diverge only in the second poll's attrs so the enclosing spans stay
	// identical and the diff pinpoints the poll itself.
	mk := func(binSize int) *trace.Trace {
		b := trace.NewBuilder()
		b.Begin(trace.KindSession, "s")
		b.Begin(trace.KindPoll, "p0")
		b.Advance(1)
		b.End()
		sp := b.Begin(trace.KindPoll, "p1")
		b.Advance(1)
		sp.SetAttr(trace.IntAttr("bin_size", binSize))
		b.End()
		b.End()
		return b.Trace()
	}
	if d := trace.Diff(mk(4), mk(4)); !d.Identical {
		t.Fatalf("identical traces diff: %s", d)
	}
	d := trace.Diff(mk(4), mk(8))
	if d.Identical {
		t.Fatal("divergent traces reported identical")
	}
	if !strings.Contains(d.Path, "p1") {
		t.Errorf("divergence path %q does not name p1", d.Path)
	}
	if !strings.Contains(d.String(), "first divergent span") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestDiffMetadata(t *testing.T) {
	a, b := trace.NewBuilder(), trace.NewBuilder()
	a.SetMeta(trace.Int64Attr("seed", 1))
	b.SetMeta(trace.Int64Attr("seed", 2))
	d := trace.Diff(a.Trace(), b.Trace())
	if d.Identical || !strings.Contains(d.Detail, "metadata") {
		t.Fatalf("metadata divergence missed: %+v", d)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	a, b := trace.NewBuilder(), trace.NewBuilder()
	a.Begin(trace.KindSession, "s")
	a.End()
	b.Begin(trace.KindSession, "s")
	b.End()
	b.Begin(trace.KindSession, "extra")
	b.End()
	d := trace.Diff(a.Trace(), b.Trace())
	if d.Identical || !strings.Contains(d.Detail, "ends after") {
		t.Fatalf("length mismatch missed: %+v", d)
	}
}

// FuzzDecode: any input Decode accepts re-encodes to bytes that decode to
// a Diff-identical trace, and re-encoding those is byte-stable. Every
// span kind's name parses back to the kind.
func FuzzDecode(f *testing.F) {
	for k := trace.SpanKind(0); int(k) < trace.NumSpanKinds; k++ {
		if got, err := trace.ParseSpanKind(k.String()); err != nil || got != k {
			f.Fatalf("ParseSpanKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	root := rng.New(7)
	for i := 0; i < 4; i++ {
		enc, err := trace.EncodeBytes(randomTrace(root.Split(uint64(i))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"schema":"tcast-trace","version":1,"unit":"slot","meta":[]}` + "\n" +
		`{"id":0,"parent":-1,"kind":"poll","name":"ÿ\ud800","start":-3,"end":9,"attrs":[]}` + "\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc1, err := trace.EncodeBytes(dec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec2, err := trace.Decode(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decode of %q: %v", enc1, err)
		}
		if d := trace.Diff(dec, dec2); !d.Identical {
			t.Fatalf("round trip changed the trace: %s", d)
		}
		enc2, err := trace.EncodeBytes(dec2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoding is not byte-stable:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}
