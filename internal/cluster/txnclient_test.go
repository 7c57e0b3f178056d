package cluster

import (
	"bytes"
	"testing"

	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/kv"
)

// A reply that lands after SweepIf failed its call is a straggler: it must be
// dropped, not taken as the reply to the client's next call. The sweep here
// fails a live machine's call 1 µs after it was sent, so its real reply is
// still on the way when the next call goes to the same machine, and arrives
// first.
func TestTxnClientDropsStragglerAfterSweep(t *testing.T) {
	const records, valueLen = 100, 64
	cl := Build(Spec{
		Machines: 2, RF: 1, Seed: 3, Slots: 64, Cores: 2, NDisks: 1,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = 2
			cfg.MVCC = true
		},
		Records:   records,
		ValueLen:  valueLen,
		FillValue: func(buf []byte, i int64) { kv.FillValue(buf, i, 1) },
	})
	defer cl.S.Close()
	clientM := len(cl.Envs) - 1

	// Two keys led by the same machine.
	const target = 1
	var keys []int64
	for i := int64(0); i < records && len(keys) < 2; i++ {
		if cl.Place.Leader(cl.Place.SlotOf(kv.Key(i))) == target {
			keys = append(keys, i)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("fewer than two keys led by machine %d", target)
	}
	value := func(i int64) []byte {
		v := make([]byte, valueLen)
		kv.FillValue(v, i, 1)
		return v
	}

	tc := NewTxnClient(cl, cl.Envs[clientM], clientM)
	var first, second kv.Result
	finished := false
	cl.Envs[clientM].Go("client", func(c env.Ctx) {
		first = tc.TxnGet(c, kv.Key(keys[0]), 100, 0)
		res := tc.TxnGet(c, kv.Key(keys[1]), 100, 0)
		second = kv.Result{Found: res.Found, Txn: res.Txn, Value: append([]byte(nil), res.Value...)}
		finished = true
	})
	cl.Envs[clientM].Go("sweeper", func(c env.Ctx) {
		c.Sleep(env.Microsecond)
		if !tc.SweepIf(c, target) {
			t.Error("SweepIf found no call in flight to the target machine")
		}
	})
	if err := cl.S.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("client never finished its second call")
	}
	if first.Txn != kv.TxnRetry || tc.Swept != 1 {
		t.Fatalf("swept call: verdict %v, Swept %d; want TxnRetry, 1", first.Txn, tc.Swept)
	}
	if second.Txn != kv.TxnOK || !second.Found || !bytes.Equal(second.Value, value(keys[1])) {
		t.Fatalf("second call got verdict %v, found %v, value of key %d? %v: the straggler completed it",
			second.Txn, second.Found, keys[0], bytes.Equal(second.Value, value(keys[0])))
	}
}
