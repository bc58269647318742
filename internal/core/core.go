// Package core implements the paper's threshold-querying algorithms — the
// tcast family — on top of the query.Querier abstraction:
//
//   - 2tBins (Algorithm 1),
//   - Exponential Increase (Algorithm 2) and its two ablation variants,
//   - ABNS, adaptive bin number selection (Algorithm 3, eqs 4 and 6),
//   - Probabilistic ABNS (Section V-D),
//   - the Oracle bin selector (Section V-C, the lower bound),
//   - the bimodal probabilistic detector (Section VI, eqs 7-10).
//
// All algorithms answer the same question: do at least t of the n
// participant nodes hold the poll predicate? They differ only in how they
// re-group the candidate nodes between query rounds.
package core

import (
	"errors"
	"fmt"

	"tcast/internal/binning"
	"tcast/internal/idset"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// Result reports one completed threshold-query session.
type Result struct {
	// Decision is the algorithm's answer to "x >= t?".
	Decision bool
	// Queries is the number of group polls issued — the paper's cost
	// metric. Bins containing no nodes are never polled and cost
	// nothing (Section IV-C).
	Queries int
	// Rounds is the number of re-binning rounds started.
	Rounds int
	// Confirmed is the number of positives identified by 2+ decodes.
	Confirmed int
}

// Algorithm is a threshold-querying strategy. Run executes one session
// over participants {0..n-1} with threshold t, drawing randomness from r.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	Run(q query.Querier, n, t int, r *rng.Source) (Result, error)
}

// ErrRoundLimit is returned when an algorithm fails to converge within the
// safety cap on rounds; it indicates a logic error or an adversarial
// channel, never a legal input on an ideal radio.
var ErrRoundLimit = errors.New("core: round limit exceeded")

// maxRounds bounds any session. Every paper algorithm halves (or at worst
// keeps) the candidate set with high probability each round, so legitimate
// sessions finish in O(log n) rounds; the cap only exists to convert
// would-be livelocks into errors.
const maxRounds = 100000

// Arena pools the per-session allocations — the knowledge ledger (with
// its candidate bitset), the session struct, and every partition and probe
// buffer — so a trial loop can run session after session without touching
// the allocator. The zero value is ready; pass it to an algorithm's RunIn
// (or the RunIn helper) and reuse it across runs. An Arena is not safe for
// concurrent use: pool one per worker or per trial slot.
type Arena struct {
	k    *query.Knowledge
	sess session
}

// newSession returns a session over participants {0..n-1} with threshold
// t, drawing its state from the arena when one is supplied (a nil arena
// allocates fresh state, preserving Run's historical behaviour).
func newSession(a *Arena, q query.Querier, n, t int, r *rng.Source, strategy binning.Strategy) *session {
	// Fields at or above the sparse cutover stream their rounds instead
	// of materializing partitions; a custom strategy keeps the classic
	// materialized path, since Strategy's contract is a [][]int.
	streamed := strategy == nil && n >= idset.SparseCutover
	if a == nil {
		return &session{q: q, k: query.NewKnowledge(n, t), r: r, custom: strategy, streamed: streamed}
	}
	if a.k == nil {
		a.k = query.NewKnowledge(n, t)
	} else {
		a.k.Reset(n, t)
	}
	s := &a.sess
	s.q, s.k, s.r, s.custom = q, a.k, r, strategy
	s.streamed = streamed
	s.res = Result{}
	return s
}

// session carries the per-run state shared by the round-based algorithms.
type session struct {
	q query.Querier
	k *query.Knowledge
	r *rng.Source
	// custom is a caller-supplied partition strategy; nil selects the
	// default random equal-sized partition on a zero-allocation fast
	// path (scratch and the partition arena are reused across rounds).
	custom  binning.Strategy
	scratch []int
	arena   binning.Arena
	// probeBuf is ProbABNS's reused probabilistic-bin buffer.
	probeBuf []int
	res      Result
	// streamed selects the sparse round path for fields at or above
	// idset.SparseCutover: rounds draw bins one at a time from a keyed
	// permutation (binning.Streamer) against a frozen rank directory of
	// the candidates (idset.Ranked), so per-round cost is O(candidates)
	// with no O(n) shuffle scratch. Below the cutover the classic
	// materialized path runs, keeping its draw sequence — and every
	// committed figure — byte-identical.
	streamed bool
	stream   binning.Streamer
	ranked   idset.Ranked
	binBuf   []int
}

// partition splits the current candidates into b bins, returning only the
// bins that contain nodes. The default path shuffles the members into the
// session's partition arena, drawing exactly the same random sequence as
// binning.RandomPartition; callers clamp b to the candidate count, so
// every returned bin is non-empty.
func (s *session) partition(b int) [][]int {
	s.scratch = s.k.Candidates.AppendMembers(s.scratch[:0])
	members := s.scratch
	if s.custom != nil {
		return binning.NonEmpty(s.custom(members, b, s.r))
	}
	bins := s.arena.RandomPartition(members, b, s.r)
	// Node-less bins are never polled (Section IV-C); RandomPartition
	// puts them last, so the non-empty bins are a prefix.
	if len(members) < len(bins) {
		bins = bins[:len(members)]
	}
	return bins
}

// decision returns the session's current resolution state.
func (s *session) decision() (answer, decided bool) { return s.k.Decision() }

// queryBin issues one group poll and folds the response into the ledger.
// It returns the response and whether the session is now decided.
func (s *session) queryBin(bin []int) (query.Response, bool) {
	resp := s.q.Query(bin)
	s.res.Queries++
	s.k.Apply(bin, resp, s.q.Traits())
	_, decided := s.k.Decision()
	return resp, decided
}

// roundOutcome summarizes one completed (or cut-short) round.
type roundOutcome struct {
	queried   int // bins actually polled (non-empty of nodes)
	emptyBins int // polled bins that answered Empty
	decided   bool
}

// runRound partitions the current candidates into b bins with the
// session's strategy and polls them in order, stopping early the moment
// the threshold question resolves (Algorithm 1 lines 11 and 14).
func (s *session) runRound(b int) roundOutcome {
	s.res.Rounds++
	// Round boundary hook: queriers that implement query.Tap's
	// TraceRound (asserted anonymously so core depends on no observer)
	// learn where each re-binning round starts. The hook receives no channel data and consumes no
	// randomness, so traced and bare runs are bit-identical.
	if rt, ok := s.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(s.res.Rounds)
	}
	if n := s.k.Candidates.Len(); b > n {
		b = n
	}
	if b < 1 {
		b = 1
	}
	if s.streamed {
		return s.runRoundStreamed(b)
	}
	bins := s.partition(b)
	s.k.StartRound()
	var out roundOutcome
	for _, bin := range bins {
		resp, decided := s.queryBin(bin)
		out.queried++
		if resp.Kind == query.Empty {
			out.emptyBins++
		}
		if decided {
			out.decided = true
			return out
		}
	}
	return out
}

// runRoundStreamed is runRound's sparse-field body: the candidates are
// frozen into a rank directory, one 64-bit key replaces the Fisher-Yates
// shuffle, and each bin is decoded rank-by-rank into one pooled buffer
// just-in-time for its poll. The querier still receives a materialized
// []int per poll — bins must stay concrete for the layers above it
// (metrics, trace, audit, faults all account bin members) — but only one
// bin exists at a time, so a round's footprint is O(n/b), not O(n).
// Candidate eliminations during the round do not affect the partition:
// like the classic path, bins are drawn against the set as it stood at
// round start (the snapshot), while Apply shrinks the live set.
func (s *session) runRoundStreamed(b int) roundOutcome {
	// Late-session compaction: once a huge field is mostly eliminated
	// (idset's compaction rule), snapshots and membership sweeps drop to
	// O(|candidates|). No-op below the cutover or while still dense.
	s.k.Candidates.Compact()
	s.ranked.Snapshot(s.k.Candidates)
	s.stream.StartPermuted(s.ranked.Len(), b, s.r.Uint64())
	s.k.StartRound()
	var out roundOutcome
	if s.ranked.Len() == 0 {
		// Mirror the classic path: no members, nothing polled.
		return out
	}
	for i := 0; i < b; i++ {
		bin := s.stream.AppendBin(i, s.binBuf[:0])
		for j, rank := range bin {
			bin[j] = s.ranked.Select(rank)
		}
		s.binBuf = bin
		resp, decided := s.queryBin(bin)
		out.queried++
		if resp.Kind == query.Empty {
			out.emptyBins++
		}
		if decided {
			out.decided = true
			return out
		}
	}
	return out
}

// finish packages the session into a Result once decided.
func (s *session) finish() Result {
	answer, decided := s.k.Decision()
	if !decided {
		panic("core: finish called on undecided session")
	}
	s.res.Decision = answer
	s.res.Confirmed = s.k.Confirmed
	return s.res
}

// runWithPolicy drives rounds until decided, asking nextBins for the bin
// count before each round. nextBins receives the outcome of the previous
// round (zero value before the first round) and the 1-based upcoming round
// number.
func (s *session) runWithPolicy(nextBins func(round int, prev roundOutcome) int) (Result, error) {
	if _, decided := s.decision(); decided {
		return s.finish(), nil
	}
	var prev roundOutcome
	for round := 1; round <= maxRounds; round++ {
		out := s.runRound(nextBins(round, prev))
		if out.decided {
			return s.finish(), nil
		}
		prev = out
	}
	return s.res, fmt.Errorf("%w after %d rounds", ErrRoundLimit, maxRounds)
}

// ArenaRunner is implemented by every algorithm in this package: RunIn is
// Run with the session state drawn from (and recycled into) an arena. A
// nil arena is equivalent to Run.
type ArenaRunner interface {
	RunIn(a *Arena, q query.Querier, n, t int, r *rng.Source) (Result, error)
}

// RunIn executes one session of alg with pooled session state when the
// algorithm supports it, falling back to plain Run otherwise. Trial loops
// use it so every tcast algorithm threads the same arena.
func RunIn(a *Arena, alg Algorithm, q query.Querier, n, t int, r *rng.Source) (Result, error) {
	if ar, ok := alg.(ArenaRunner); ok {
		return ar.RunIn(a, q, n, t, r)
	}
	return alg.Run(q, n, t, r)
}

func validate(n, t int) error {
	if n < 0 {
		return fmt.Errorf("core: negative participant count %d", n)
	}
	if t < 0 {
		return fmt.Errorf("core: negative threshold %d", t)
	}
	return nil
}
