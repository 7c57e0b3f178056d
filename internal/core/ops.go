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
	w.done, w.res, w.prev = false, kv.Result{}, nil
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
	w.prev, r.Done = r.Done, w.completeFn
	s.Submit(c, r)
	res := w.wait(c)
	r.Done = w.prev
	s.releaseWaiter(c, w)
	return res
}

// Put durably stores value under key, blocking until the write has reached
// its final location on disk (§4.4: updates are acknowledged only then).
func (s *Store) Put(c env.Ctx, key, value []byte) {
	s.Do(c, &kv.Request{Op: kv.OpUpdate, Key: key, Value: value})
}

// Get returns the most recent value of key.
func (s *Store) Get(c env.Ctx, key []byte) ([]byte, bool) {
	res := s.Do(c, &kv.Request{Op: kv.OpGet, Key: key})
	return res.Value, res.Found
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(c env.Ctx, key []byte) bool {
	return s.Do(c, &kv.Request{Op: kv.OpDelete, Key: key}).Found
}
