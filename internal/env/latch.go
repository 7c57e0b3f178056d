package env

// Latch is a countdown latch: a thread arms it with the number of
// completions it expects, issues the work, and waits until every completion
// has been counted. It is built from the environment's own Mutex and Cond,
// so it behaves the same under the simulator and RealEnv.
//
// Its rules, relied on by every completion callback that counts into one:
//   - Done may run in scheduler context (an I/O or network completion) with
//     a nil Ctx. Its mutex is never held across a park, so a Lock there
//     never contends.
//   - Done broadcasts after unlocking and touches nothing of the latch but
//     the cond after the unlock: once the count reaches zero the waiter may
//     return, and the structure holding the latch may be recycled and the
//     latch re-armed before the broadcast lands. A stray broadcast on a
//     re-armed latch only makes a waiter re-check its count.
//   - A latch is reusable: once Wait has returned, Add arms it again.
//
// A Latch is a value, so a pooled record that waits on its own completions
// holds one as a field rather than a pointer to one. Like a sync.Mutex, it
// must not be copied once in use.
type Latch struct {
	mu   Mutex
	cond Cond
	n    int // completions still expected (guarded by mu)
}

// NewLatch returns a latch at count zero.
func NewLatch(e Env) Latch {
	mu := e.NewMutex()
	return Latch{mu: mu, cond: e.NewCond(mu)}
}

// Add expects n more completions. Call it before issuing the work they
// count.
func (l *Latch) Add(c Ctx, n int) {
	l.mu.Lock(c)
	l.n += n
	l.mu.Unlock(c)
}

// Done counts one completion, waking every waiter at the last. c may be nil.
func (l *Latch) Done(c Ctx) {
	cond := l.cond
	l.mu.Lock(c)
	l.n--
	if l.n < 0 {
		l.mu.Unlock(c)
		panic("env: Latch.Done without a matching Add")
	}
	zero := l.n == 0
	l.mu.Unlock(c)
	if zero {
		cond.Broadcast(c)
	}
}

// Wait blocks until the count is zero; at zero it returns without parking.
func (l *Latch) Wait(c Ctx) {
	l.mu.Lock(c)
	for l.n > 0 {
		l.cond.Wait(c)
	}
	l.mu.Unlock(c)
}
