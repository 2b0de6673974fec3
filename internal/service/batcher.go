// The block batcher: bridges a campaign's streamed per-trial results
// into the durable hash chain. Trials arrive in scheduling order from
// concurrent workers; the batcher buffers one chunk's records, seals
// them into the next chain block when the chunk returns, and
// appends it durably — batching trial writes at block granularity so
// durability costs one fsync per block instead of one per trial under
// load.
package service

import (
	"fmt"
	"math"

	"ranger/internal/inject"
)

// batcher accumulates one job's trial records between block boundaries
// and maintains the chain cursor. It is not itself goroutine-safe:
// records arrive through Campaign.OnTrial or OnSequence, whose
// invocations the campaign serializes, and Flush is called only after
// the chunk returns (which orders every callback before it).
type batcher struct {
	store      Store
	id         string
	trials     int  // per-input trial count (grid linearization)
	seqOrdered bool // records order by sequence number, not grid
	persistent bool // sequence records folding a PersistentOutcome

	// sum is the durable cursor and aggregate: the verified chain the
	// job resumed from, advanced by every block sealed since.
	sum     ChainSummary
	pending []TrialRecord
}

// newBatcher positions a batcher at a verified chain summary: resumed
// jobs continue appending exactly where the persisted chain ends.
func newBatcher(store Store, man Manifest, sum ChainSummary) *batcher {
	persistent := man.Spec.Persistent()
	return &batcher{
		store:      store,
		id:         man.ID,
		trials:     man.Spec.Trials,
		seqOrdered: man.Spec.Adaptive != "" || persistent,
		persistent: persistent,
		sum:        sum,
	}
}

// chunk is one executed chunk's live result: the end of the range it
// covered from the frontier, and its fold — outcome for transient and
// adaptive jobs, persistent for persistent-surface jobs.
type chunk struct {
	end        int64
	outcome    inject.Outcome
	persistent inject.PersistentOutcome
}

// Flush seals the buffered records into the chain block covering
// [frontier, c.end), appends it durably, and advances the cursor. The
// chunk's live fold cross-checks the records: the persisted chain must
// reproduce exactly what the live campaign reported, or the block is
// not written.
func (b *batcher) Flush(c chunk) (Block, error) {
	n, folded := int64(len(b.pending)), int64(c.outcome.Trials)+c.persistent.Sequences
	if n != c.end-b.sum.Frontier || folded != n {
		return Block{}, fmt.Errorf("service: %s: chunk [%d,%d) streamed %d records, outcome folded %d",
			b.id, b.sum.Frontier, c.end, n, folded)
	}
	blk, err := sealBlock(b.sum.Blocks, b.sum.Frontier, c.end, b.sum.LastHash, b.trials, b.seqOrdered, b.pending)
	if err != nil {
		return Block{}, fmt.Errorf("service: %s: %w", b.id, err)
	}
	var check ChainSummary
	for _, r := range blk.Results {
		check.fold(r, b.persistent)
	}
	if !outcomeEqual(check.Outcome, c.outcome) || !persistentOutcomeEqual(check.Persistent, c.persistent) {
		return Block{}, fmt.Errorf("service: %s: block %d fold disagrees with live outcome", b.id, b.sum.Blocks)
	}
	if err := b.store.Append(b.id, blk); err != nil {
		return Block{}, err
	}
	b.sum.Blocks++
	b.sum.LastHash = blk.Hash
	b.sum.Frontier = c.end
	b.pending = nil
	mergeOutcome(&b.sum.Outcome, c.outcome)
	mergePersistentOutcome(&b.sum.Persistent, c.persistent)
	return blk, nil
}

// mergeOutcome concatenates a later slice's aggregate onto an earlier
// one — the fold RunSlice guarantees matches an uninterrupted Run.
func mergeOutcome(into *inject.Outcome, part inject.Outcome) {
	into.Trials += part.Trials
	into.Top1SDC += part.Top1SDC
	into.Top5SDC += part.Top5SDC
	into.Deviations = append(into.Deviations, part.Deviations...)
}

// mergePersistentOutcome concatenates a later slice's persistent
// aggregate onto an earlier one — the fold RunPersistentSlice guarantees
// matches an uninterrupted RunPersistent (counters add, latency
// distributions concatenate in sequence order).
func mergePersistentOutcome(into *inject.PersistentOutcome, part inject.PersistentOutcome) {
	into.Sequences += part.Sequences
	into.Inferences += part.Inferences
	into.Detected += part.Detected
	into.DetectionLatencies = append(into.DetectionLatencies, part.DetectionLatencies...)
	into.FirstSDCLatencies = append(into.FirstSDCLatencies, part.FirstSDCLatencies...)
	into.SDCsBeforeDetection += part.SDCsBeforeDetection
	into.UndetectedSDC += part.UndetectedSDC
	into.Repairs += part.Repairs
	into.PostRepairOK += part.PostRepairOK
	into.DUEs += part.DUEs
}

// persistentOutcomeEqual compares persistent aggregates exactly; every
// field is integral, so == per field is bit-exact.
func persistentOutcomeEqual(a, b inject.PersistentOutcome) bool {
	if a.Sequences != b.Sequences || a.Inferences != b.Inferences || a.Detected != b.Detected ||
		a.SDCsBeforeDetection != b.SDCsBeforeDetection || a.UndetectedSDC != b.UndetectedSDC ||
		a.Repairs != b.Repairs || a.PostRepairOK != b.PostRepairOK || a.DUEs != b.DUEs {
		return false
	}
	return intsEqual(a.DetectionLatencies, b.DetectionLatencies) &&
		intsEqual(a.FirstSDCLatencies, b.FirstSDCLatencies)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// outcomeEqual compares aggregates bit-exactly (NaN-safe: deviations are
// compared as IEEE-754 bit patterns).
func outcomeEqual(a, b inject.Outcome) bool {
	if a.Trials != b.Trials || a.Top1SDC != b.Top1SDC || a.Top5SDC != b.Top5SDC || len(a.Deviations) != len(b.Deviations) {
		return false
	}
	for i := range a.Deviations {
		if math.Float64bits(a.Deviations[i]) != math.Float64bits(b.Deviations[i]) {
			return false
		}
	}
	return true
}
