// Hash-chained trial blocks: the tamper-evident persisted form of a
// campaign's results. Block k stores the per-trial records of grid
// positions [Start, End) plus the hash of block k-1 (the manifest's
// spec hash for k = 0); its own hash covers its canonical JSON with the
// hash field empty. Any edit to a spec, a trial verdict, a block
// boundary, or the chain order changes every later hash, so a published
// final hash pins the whole campaign.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"ranger/internal/inject"
)

// Block is one persisted chunk of campaign results: the trial records of
// linearized grid positions [Start, End), in grid order.
type Block struct {
	Seq     int           `json:"seq"`
	Start   int64         `json:"start"`
	End     int64         `json:"end"`
	Results []TrialRecord `json:"results"`
	// Prev is the previous block's hash (the manifest spec hash for the
	// first block).
	Prev string `json:"prev"`
	// Hash seals the block: SHA-256 over the block's canonical JSON with
	// Hash itself empty.
	Hash string `json:"hash,omitempty"`
}

// digest returns the hash of the block's canonical sealed form.
func (b Block) digest() (string, error) {
	b.Hash = ""
	raw, err := json.Marshal(b)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// seal computes and stores the block hash.
func (b *Block) seal() error {
	h, err := b.digest()
	if err != nil {
		return err
	}
	b.Hash = h
	return nil
}

// verifySeal recomputes the block hash and reports tampering.
func (b Block) verifySeal() error {
	h, err := b.digest()
	if err != nil {
		return err
	}
	if h != b.Hash {
		return fmt.Errorf("block %d: hash mismatch (stored %s, computed %s)", b.Seq, b.Hash, h)
	}
	return nil
}

// sealBlock orders one chunk's streamed records into chain order,
// validates that they cover [start, end) exactly, and seals them into
// the chain's next block. recs may arrive in any order (OnTrial
// delivers scheduling order); trials is the campaign's per-input trial
// count, and seqOrdered (adaptive and persistent jobs) switches
// positions to the record's sequence number.
func sealBlock(seq int, start, end int64, prev string, trials int, seqOrdered bool, recs []TrialRecord) (Block, error) {
	if int64(len(recs)) != end-start {
		return Block{}, fmt.Errorf("block %d: %d records for %d trials [%d,%d)", seq, len(recs), end-start, start, end)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].pos(trials, seqOrdered) < recs[j].pos(trials, seqOrdered) })
	for i, r := range recs {
		if want := start + int64(i); r.pos(trials, seqOrdered) != want {
			return Block{}, fmt.Errorf("block %d: record %d at grid position %d, want %d", seq, i, r.pos(trials, seqOrdered), want)
		}
	}
	b := Block{Seq: seq, Start: start, End: end, Results: recs, Prev: prev}
	if err := b.seal(); err != nil {
		return Block{}, err
	}
	return b, nil
}

// ChainSummary is the result of verifying a job's chain.
type ChainSummary struct {
	// Blocks and Frontier describe the verified prefix.
	Blocks   int
	Frontier int64
	// LastHash is the final verified hash (the spec hash for an empty
	// chain).
	LastHash string
	// Outcome is the aggregate folded from every verified record, in
	// grid order — byte-identical to the live campaign's fold over the
	// same prefix.
	Outcome inject.Outcome
	// Persistent is the corresponding fold for persistent-surface jobs
	// (Outcome stays zero for those).
	Persistent inject.PersistentOutcome
	// Complete reports whether the chain covers the whole grid. Adaptive
	// jobs stop early by design, so their completed chains are usually
	// NOT Complete; their frontier is the trial count early stopping
	// settled on.
	Complete bool
}

// fold folds one record into the aggregate of its job kind.
func (s *ChainSummary) fold(r TrialRecord, persistent bool) {
	if persistent {
		r.applyPersistent(&s.Persistent)
	} else {
		r.apply(&s.Outcome)
	}
}

// VerifyChain checks a job's block chain against its manifest: the
// manifest seal, block-hash seals, prev-hash linkage from the spec hash,
// contiguous [Start, End) coverage from grid position 0, and in-order
// record positions. It returns the folded aggregate Outcome. It is the
// offline re-verification path (rangerd verify) and the trusted fold
// behind resume.
func VerifyChain(man Manifest, blocks []Block) (ChainSummary, error) {
	if err := man.VerifySeal(); err != nil {
		return ChainSummary{}, err
	}
	trials := man.Spec.Trials
	if trials <= 0 {
		return ChainSummary{}, fmt.Errorf("service: manifest %s: trials = %d", man.ID, trials)
	}
	persistent := man.Spec.Persistent()
	seqOrdered := man.Spec.Adaptive != "" || persistent
	sum := ChainSummary{LastHash: man.SpecHash}
	for i, b := range blocks {
		if b.Seq != i {
			return ChainSummary{}, fmt.Errorf("service: %s: block %d out of sequence (seq %d)", man.ID, i, b.Seq)
		}
		if b.Prev != sum.LastHash {
			return ChainSummary{}, fmt.Errorf("service: %s: block %d prev-hash mismatch", man.ID, i)
		}
		if b.Start != sum.Frontier || b.End <= b.Start || b.End > man.GridTotal {
			return ChainSummary{}, fmt.Errorf("service: %s: block %d covers [%d,%d), frontier %d, grid %d",
				man.ID, i, b.Start, b.End, sum.Frontier, man.GridTotal)
		}
		if err := b.verifySeal(); err != nil {
			return ChainSummary{}, fmt.Errorf("service: %s: %w", man.ID, err)
		}
		if int64(len(b.Results)) != b.End-b.Start {
			return ChainSummary{}, fmt.Errorf("service: %s: block %d has %d records for [%d,%d)", man.ID, i, len(b.Results), b.Start, b.End)
		}
		for j, r := range b.Results {
			if r.pos(trials, seqOrdered) != b.Start+int64(j) {
				return ChainSummary{}, fmt.Errorf("service: %s: block %d record %d at grid position %d, want %d",
					man.ID, i, j, r.pos(trials, seqOrdered), b.Start+int64(j))
			}
			sum.fold(r, persistent)
		}
		sum.Frontier = b.End
		sum.LastHash = b.Hash
		sum.Blocks++
	}
	sum.Complete = sum.Frontier == man.GridTotal
	return sum, nil
}
