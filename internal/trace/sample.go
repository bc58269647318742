package trace

// Head-rate poll-span sampling. A full trace carries one leaf span per
// poll — O(polls) memory per session — which is exactly the telemetry
// term that grows without bound on large fields. Sampling records one
// poll leaf in every k, but deterministically: the keep/skip decision is
// a splitmix hash of (caller key, session name, poll index), not a drawn
// random number, so
//
//   - no RNG stream is consumed — a sampled run's algorithm decisions,
//     tables, and audit verdicts are byte-identical to an unsampled run;
//   - identical runs sample identical spans, so trace diffs stay
//     meaningful across re-runs and worker counts (the caller key is the
//     trial index, which does not depend on scheduling).
//
// Unsampled polls still advance the virtual clock and the session's
// poll/node counters: every non-leaf span width and session attribute
// remains exact; only the per-poll leaves are thinned. Each recorded
// leaf carries AttrSampleRate, and Analyze scales Polls/NodesPolled by
// that inverse rate so sampled analyses estimate the true totals.

// AttrSampleRate is the poll-span attribute carrying the sampling rate
// k ("this leaf stands for k polls"). Absent on unsampled traces.
const AttrSampleRate = "sample_rate"

// SetSampling configures head-rate sampling: record one poll span in
// every k, keyed so that the same (key, session, poll index) always
// makes the same decision. k <= 1 records every poll — the default, and
// byte-identical to the pre-sampling trace format. The key is typically
// the trial index; callers sharing a builder across sessions get
// per-session decorrelation from the session-name hash mixed in at
// StartSession.
func (s *SpanRecorder) SetSampling(k int, key uint64) {
	if k < 0 {
		k = 0
	}
	s.sampleEvery = k
	s.sampleKey = key
}

// sampled decides whether the current poll's leaf span is recorded.
func (s *SpanRecorder) sampled() bool {
	if s.sampleEvery <= 1 {
		return true
	}
	return hash64(s.sessionKey^uint64(s.polls))%uint64(s.sampleEvery) == 0
}

// hash64 is the SplitMix64 finalizer — the same deterministic mixer the
// rng package seeds streams with and internal/sketch keys reservoirs
// with, duplicated here to keep trace dependency-free.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a string into a 64-bit key by iterating hash64 over
// its bytes.
func hashString(s string) uint64 {
	h := uint64(len(s))
	for i := 0; i < len(s); i++ {
		h = hash64(h ^ uint64(s[i]))
	}
	return h
}
