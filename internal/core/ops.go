package core

import (
	"kvell/internal/env"
	"kvell/internal/kv"
)

// waiter turns the asynchronous request interface into a blocking call for
// the calling thread. Waiters are recycled on the Store (see acquireWaiter),
// so a blocking call allocates nothing in steady state.
type waiter struct {
	mu   env.Mutex
	cond env.Cond
	done bool
	res  kv.Result
	// prev is the request's own Done, which Do calls before waking the caller.
	prev func(kv.Result)
	// completeFn is w.complete, bound once: the value a request's Done takes.
	completeFn func(kv.Result)
	// req is the request of a Call, run in place of a fresh one.
	req kv.Request
}

// acquireWaiter takes a waiter off the store's free list, or builds one. The
// list's mutex is held only for the pop and the push, never across a park:
// in the simulator it is uncontended and costs no virtual time, and in the
// real runtime it serializes the goroutines that share the store.
func (s *Store) acquireWaiter(c env.Ctx) *waiter {
	var w *waiter
	s.poolMu.Lock(c)
	if n := len(s.waiters); n > 0 {
		w = s.waiters[n-1]
		s.waiters = s.waiters[:n-1]
	}
	s.poolMu.Unlock(c)
	if w == nil {
		w = &waiter{mu: s.env.NewMutex()}
		w.cond = s.env.NewCond(w.mu)
		w.completeFn = w.complete
	}
	return w
}

// releaseWaiter returns w to the free list once its wait has returned.
func (s *Store) releaseWaiter(c env.Ctx, w *waiter) {
	w.done, w.res, w.prev, w.req = false, kv.Result{}, nil, kv.Request{}
	s.poolMu.Lock(c)
	s.waiters = append(s.waiters, w)
	s.poolMu.Unlock(c)
}

func (w *waiter) complete(res kv.Result) {
	if w.prev != nil {
		w.prev(res)
	}
	w.mu.Lock(nil)
	w.res = res
	w.done = true
	w.mu.Unlock(nil)
	w.cond.Broadcast(nil)
}

func (w *waiter) wait(c env.Ctx) kv.Result {
	w.mu.Lock(c)
	for !w.done {
		w.cond.Wait(c)
	}
	w.mu.Unlock(c)
	return w.res
}

// Do submits r and blocks the calling thread until it completes. r.Done, if
// set, is called first and is back in place when Do returns.
func (s *Store) Do(c env.Ctx, r *kv.Request) kv.Result {
	w := s.acquireWaiter(c)
	res := w.do(c, s, r)
	s.releaseWaiter(c, w)
	return res
}

// Call is Do for a request passed by value: it runs on the request embedded
// in the pooled waiter, so a blocking round trip allocates no kv.Request.
// Result.Value stays the caller's to keep: the embedded request is zeroed on
// release, so a read only ever fills r's own ValueBuf (normally nil, which
// gets a fresh buffer), never one a previous call grew.
func (s *Store) Call(c env.Ctx, r kv.Request) kv.Result {
	w := s.acquireWaiter(c)
	w.req = r
	res := w.do(c, s, &w.req)
	s.releaseWaiter(c, w)
	return res
}

func (w *waiter) do(c env.Ctx, s *Store, r *kv.Request) kv.Result {
	w.prev, r.Done = r.Done, w.completeFn
	s.Submit(c, r)
	res := w.wait(c)
	r.Done = w.prev
	return res
}

// Put durably stores value under key, blocking until the write has reached
// its final location on disk (§4.4: updates are acknowledged only then).
func (s *Store) Put(c env.Ctx, key, value []byte) {
	s.Call(c, kv.Request{Op: kv.OpUpdate, Key: key, Value: value})
}

// Get returns the most recent value of key.
func (s *Store) Get(c env.Ctx, key []byte) ([]byte, bool) {
	res := s.Call(c, kv.Request{Op: kv.OpGet, Key: key})
	return res.Value, res.Found
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(c env.Ctx, key []byte) bool {
	return s.Call(c, kv.Request{Op: kv.OpDelete, Key: key}).Found
}
