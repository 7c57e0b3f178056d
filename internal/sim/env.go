package sim

import "kvell/internal/env"

// Env adapts a simulation plus a CPU pool to the env.Env interface, so the
// engines can run unchanged inside the simulator.
type Env struct {
	S    *Sim
	CPUs *Pool
	// Machine is the machine domain procs started through this Env belong
	// to (see Sim.Halt). Zero for single-machine simulations; NewMachineEnv
	// sets it for cluster nodes.
	Machine int
	// OnMutexWait, if set when a mutex is created, is called after each
	// contended Lock on that mutex with the wait interval. Purely
	// observational (tracing); wire it before the engine is built.
	OnMutexWait func(p *Proc, start, end env.Time)
}

// NewEnv returns an env.Env backed by simulation s with cores CPU cores.
func NewEnv(s *Sim, cores int) *Env {
	return &Env{S: s, CPUs: NewPool(s, cores)}
}

// NewMachineEnv returns an env.Env whose procs and CPU pool belong to the
// given machine domain. Each simulated machine of a cluster gets its own
// Env (own cores), all sharing one Sim (one clock, one event queue).
func NewMachineEnv(s *Sim, machine, cores int) *Env {
	return &Env{S: s, CPUs: NewPool(s, cores), Machine: machine}
}

// Now implements env.Env.
func (e *Env) Now() env.Time { return e.S.Now() }

// Go implements env.Env.
func (e *Env) Go(name string, fn func(env.Ctx)) {
	e.S.GoOn(e.Machine, name, func(p *Proc) { fn(&simCtx{e: e, p: p}) })
}

// NewMutex implements env.Env.
func (e *Env) NewMutex() env.Mutex {
	m := NewMutex(e.S)
	m.onWait = e.OnMutexWait
	return &simMutex{m: m}
}

// NewCond implements env.Env.
func (e *Env) NewCond(m env.Mutex) env.Cond {
	return &simCond{c: NewCond(e.S), m: m.(*simMutex)}
}

// NewQueue implements env.Env.
func (e *Env) NewQueue() env.Queue { return &simQueue{q: NewQueue(e.S)} }

// Ctx returns an env.Ctx for an existing proc (used when simulation code
// created the proc directly).
func (e *Env) Ctx(p *Proc) env.Ctx { return &simCtx{e: e, p: p} }

type simCtx struct {
	e *Env
	p *Proc
}

func (c *simCtx) Now() env.Time    { return c.e.S.Now() }
func (c *simCtx) CPU(d env.Time)   { c.e.CPUs.Use(c.p, d) }
func (c *simCtx) Sleep(d env.Time) { c.p.Sleep(d) }
func (c *simCtx) SetTrace(v any)   { c.p.SetTrace(v) }
func (c *simCtx) Trace() any       { return c.p.Trace() }

func proc(c env.Ctx) *Proc {
	if c == nil {
		return nil
	}
	return c.(*simCtx).p
}

type simMutex struct{ m *Mutex }

func (m *simMutex) Lock(c env.Ctx) {
	p := proc(c)
	if p == nil {
		// Scheduler context (completion callback): must not contend. By the
		// condition-variable discipline the mutex is never held across a
		// park, so a same-instant Lock from scheduler context always wins.
		if !m.m.TryLock() {
			panic("sim: contended Lock from scheduler context")
		}
		return
	}
	m.m.Lock(p)
}

func (m *simMutex) Unlock(c env.Ctx) { m.m.Unlock(proc(c)) }

type simCond struct {
	c *Cond
	m *simMutex
}

func (c *simCond) Wait(ctx env.Ctx)  { c.c.Wait(proc(ctx), c.m.m) }
func (c *simCond) Signal(env.Ctx)    { c.c.Signal() }
func (c *simCond) Broadcast(env.Ctx) { c.c.Broadcast() }

type simQueue struct{ q *Queue }

func (q *simQueue) Push(c env.Ctx, v any)              { q.q.Push(v) }
func (q *simQueue) PopWait(c env.Ctx, buf []any) []any { return q.q.PopWait(proc(c), buf) }
func (q *simQueue) TryPop(c env.Ctx, buf []any) []any  { return q.q.TryPop(buf) }
func (q *simQueue) Close(c env.Ctx)                    { q.q.Close() }
func (q *simQueue) Len() int                           { return q.q.Len() }
