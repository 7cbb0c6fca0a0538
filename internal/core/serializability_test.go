package core

// A randomized serializability checker. Workers run transactions of
// random composed map operations, recording every operation's result.
// Each transaction also registers a commit handler that draws a global
// sequence number; because commit handlers run under the STM's commit
// guard, the sequence numbers are the true serialization order the
// semantic concurrency control produced. Afterwards, the committed
// transactions are replayed in sequence order against a plain model
// map: serializability holds iff every recorded result matches the
// replay and the final committed map equals the model.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tcc/internal/stm"
)

type serOpKind int

const (
	serGet serOpKind = iota
	serContains
	serPut
	serPutUnread
	serRemove
	serSize
	serIsEmpty
)

type serOp struct {
	kind serOpKind
	k    int
	v    int
	// recorded results
	gotV  int
	gotOK bool
	gotN  int
	gotB  bool
}

type serTx struct {
	seq int64
	ops []serOp
}

func runSerializabilityWorkload(t *testing.T, workers, txPerWorker, keySpace int, blindAllowed bool) {
	t.Helper()
	tm := newIntMap()
	var seqCounter atomic.Int64
	var mu sync.Mutex
	var committed []serTx

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
			th := newTh(int64(w + 1))
			for i := 0; i < txPerWorker; i++ {
				// Draw the transaction's shape once; results are
				// recorded fresh on every attempt so the committed
				// attempt's observations survive.
				nOps := 1 + rng.Intn(4)
				shape := make([]serOp, nOps)
				for j := range shape {
					maxKind := int(serIsEmpty)
					kind := serOpKind(rng.Intn(maxKind + 1))
					if kind == serPutUnread && !blindAllowed {
						kind = serPut
					}
					shape[j] = serOp{kind: kind, k: rng.Intn(keySpace), v: rng.Int() % 1000}
				}
				var rec serTx
				err := th.Atomic(func(tx *stm.Tx) error {
					rec = serTx{ops: make([]serOp, len(shape))}
					copy(rec.ops, shape)
					for j := range rec.ops {
						op := &rec.ops[j]
						switch op.kind {
						case serGet:
							op.gotV, op.gotOK = tm.Get(tx, op.k)
						case serContains:
							op.gotB = tm.ContainsKey(tx, op.k)
						case serPut:
							op.gotV, op.gotOK = tm.Put(tx, op.k, op.v)
						case serPutUnread:
							tm.PutUnread(tx, op.k, op.v)
						case serRemove:
							op.gotV, op.gotOK = tm.Remove(tx, op.k)
						case serSize:
							op.gotN = tm.Size(tx)
						case serIsEmpty:
							op.gotB = tm.IsEmpty(tx)
						}
					}
					// Draw the serialization number at commit, under
					// the commit guard.
					tx.OnTopCommitGuarded(tm.Guard(), func() {
						rec.seq = seqCounter.Add(1)
					})
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				committed = append(committed, rec)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Replay in serialization order against a model.
	bydSeq := make([]serTx, len(committed))
	copy(bydSeq, committed)
	for i := range bydSeq {
		if bydSeq[i].seq == 0 {
			t.Fatal("committed transaction without sequence number")
		}
	}
	sortBySeq(bydSeq)
	model := map[int]int{}
	for _, tr := range bydSeq {
		for _, op := range tr.ops {
			switch op.kind {
			case serGet:
				wantV, wantOK := model[op.k]
				if op.gotOK != wantOK || (wantOK && op.gotV != wantV) {
					t.Fatalf("seq %d: get(%d) observed (%d,%v), replay gives (%d,%v) — not serializable",
						tr.seq, op.k, op.gotV, op.gotOK, wantV, wantOK)
				}
			case serContains:
				_, want := model[op.k]
				if op.gotB != want {
					t.Fatalf("seq %d: containsKey(%d) observed %v, replay gives %v", tr.seq, op.k, op.gotB, want)
				}
			case serPut:
				wantV, wantOK := model[op.k]
				if op.gotOK != wantOK || (wantOK && op.gotV != wantV) {
					t.Fatalf("seq %d: put(%d) returned (%d,%v), replay gives (%d,%v)",
						tr.seq, op.k, op.gotV, op.gotOK, wantV, wantOK)
				}
				model[op.k] = op.v
			case serPutUnread:
				model[op.k] = op.v
			case serRemove:
				wantV, wantOK := model[op.k]
				if op.gotOK != wantOK || (wantOK && op.gotV != wantV) {
					t.Fatalf("seq %d: remove(%d) returned (%d,%v), replay gives (%d,%v)",
						tr.seq, op.k, op.gotV, op.gotOK, wantV, wantOK)
				}
				delete(model, op.k)
			case serSize:
				if op.gotN != len(model) {
					t.Fatalf("seq %d: size observed %d, replay gives %d", tr.seq, op.gotN, len(model))
				}
			case serIsEmpty:
				if op.gotB != (len(model) == 0) {
					t.Fatalf("seq %d: isEmpty observed %v, replay gives %v", tr.seq, op.gotB, len(model) == 0)
				}
			}
		}
	}

	// Final state must match the model.
	th := newTh(999)
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != len(model) {
			t.Fatalf("final size %d, model %d", n, len(model))
		}
		for k, v := range model {
			if got, ok := tm.Get(tx, k); !ok || got != v {
				t.Fatalf("final state: key %d = (%d,%v), model %d", k, got, ok, v)
			}
		}
	})
}

func sortBySeq(txs []serTx) {
	for i := 1; i < len(txs); i++ {
		for j := i; j > 0 && txs[j].seq < txs[j-1].seq; j-- {
			txs[j], txs[j-1] = txs[j-1], txs[j]
		}
	}
}

// TestSerializabilityHighContention hammers a tiny key space so nearly
// every pair of transactions semantically conflicts.
func TestSerializabilityHighContention(t *testing.T) {
	runSerializabilityWorkload(t, 6, 80, 4, false)
}

// TestSerializabilityMediumContention uses a wider key space where
// disjoint-key transactions commute.
func TestSerializabilityMediumContention(t *testing.T) {
	runSerializabilityWorkload(t, 8, 80, 64, false)
}

// TestSerializabilityWithBlindWrites includes PutUnread. Blind writes
// deliberately forgo read dependencies, but the commit-order replay
// must still match: a blind write that commits later wins, exactly as
// the replay applies it.
func TestSerializabilityWithBlindWrites(t *testing.T) {
	runSerializabilityWorkload(t, 6, 80, 8, true)
}
