package cluster

import (
	"bytes"
	"testing"

	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/kv"
)

const (
	stragglerRecords  = 100
	stragglerValueLen = 64
	stragglerTarget   = 1 // the machine whose requests are swept
)

// stragglerCluster is a 2-machine MVCC cluster, and two keys its machine
// stragglerTarget leads.
func stragglerCluster(t *testing.T) (*Cluster, [2]int64) {
	cl := Build(Spec{
		Machines: 2, RF: 1, Seed: 3, Slots: 64, Cores: 2, NDisks: 1,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = 2
			cfg.MVCC = true
		},
		Records:   stragglerRecords,
		ValueLen:  stragglerValueLen,
		FillValue: func(buf []byte, i int64) { kv.FillValue(buf, i, 1) },
	})
	var keys []int64
	for i := int64(0); i < stragglerRecords && len(keys) < 2; i++ {
		if cl.Place.Leader(cl.Place.SlotOf(kv.Key(i))) == stragglerTarget {
			keys = append(keys, i)
		}
	}
	if len(keys) < 2 {
		cl.S.Close()
		t.Fatalf("fewer than two keys led by machine %d", stragglerTarget)
	}
	return cl, [2]int64{keys[0], keys[1]}
}

// sweepAfter starts a proc that, 1 µs from now, sweeps stragglerTarget and
// records the swept record of k in *swept: the request sent just before is
// then still on its way to the live machine, so its real reply arrives after
// the sweep.
func sweepAfter(t *testing.T, cl *Cluster, k *Client) (swept **reqRec) {
	swept = new(*reqRec)
	cl.Envs[len(cl.Envs)-1].Go("sweeper", func(c env.Ctx) {
		c.Sleep(env.Microsecond)
		rec := k.recs
		if rec == nil || rec.link != nil {
			t.Error("want exactly one record, the one in flight")
			return
		}
		if n := cl.Sweep(c, stragglerTarget); n != 1 {
			t.Errorf("Sweep failed %d requests, want the 1 in flight", n)
		}
		*swept = rec
	})
	return swept
}

// awaitStraggler parks until the swept record has been served: its reply is
// then on the way back, and lands after a request sent now has left.
func awaitStraggler(c env.Ctx, swept **reqRec) {
	for *swept == nil || len((*swept).respValue) == 0 {
		c.Sleep(env.Microsecond)
	}
}

func initialValue(i int64) []byte {
	v := make([]byte, stragglerValueLen)
	kv.FillValue(v, i, 1)
	return v
}

// A reply that lands after Sweep failed its Call is a straggler: it must be
// dropped, not taken as the reply to the client's next Call, which is sent
// while the straggler is on its way.
func TestClientCallDropsStragglerAfterSweep(t *testing.T) {
	cl, keys := stragglerCluster(t)
	defer cl.S.Close()
	k := cl.NewClient()
	swept := sweepAfter(t, cl, k)
	var first, second kv.Result
	finished := false
	cl.Envs[len(cl.Envs)-1].Go("client", func(c env.Ctx) {
		first = k.Call(c, kv.Request{Op: kv.OpTxnGet, Key: kv.Key(keys[0]), TS: 100})
		awaitStraggler(c, swept)
		res := k.Call(c, kv.Request{Op: kv.OpTxnGet, Key: kv.Key(keys[1]), TS: 100})
		second = kv.Result{Found: res.Found, Txn: res.Txn, Value: append([]byte(nil), res.Value...)}
		finished = true
	})
	if err := cl.S.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("client never finished its second call")
	}
	if first.Txn != kv.TxnRetry {
		t.Fatalf("swept call: verdict %v, want TxnRetry", first.Txn)
	}
	if second.Txn != kv.TxnOK || !second.Found || !bytes.Equal(second.Value, initialValue(keys[1])) {
		t.Fatalf("second call got verdict %v, found %v, value of key %d? %v: the straggler completed it",
			second.Txn, second.Found, keys[0], bytes.Equal(second.Value, initialValue(keys[0])))
	}
}

// The same rule on the asynchronous path: a swept Submit completes exactly
// once, with TxnRetry, and its late reply completes neither it again nor the
// next request submitted on the same Client.
func TestClientSubmitDropsStragglerAfterSweep(t *testing.T) {
	cl, keys := stragglerCluster(t)
	defer cl.S.Close()
	k := cl.NewClient()
	swept := sweepAfter(t, cl, k)
	var lost, next []kv.Result
	record := func(to *[]kv.Result) func(kv.Result) {
		return func(res kv.Result) {
			*to = append(*to, kv.Result{Found: res.Found, Txn: res.Txn, Value: append([]byte(nil), res.Value...)})
		}
	}
	cl.Envs[len(cl.Envs)-1].Go("client", func(c env.Ctx) {
		k.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(keys[0]), Done: record(&lost)})
		awaitStraggler(c, swept)
		k.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(keys[1]), Done: record(&next)})
	})
	if err := cl.S.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0].Txn != kv.TxnRetry {
		t.Fatalf("swept request completed %d times (%+v), want once with TxnRetry", len(lost), lost)
	}
	if len(next) != 1 || next[0].Txn != kv.TxnOK || !next[0].Found || !bytes.Equal(next[0].Value, initialValue(keys[1])) {
		t.Fatalf("next request completed %d times; first result %+v: want once, with key %d's value", len(next), next, keys[1])
	}
}
