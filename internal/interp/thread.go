package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/locklog"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// thread is one executing ShC thread: a goroutine with a stack region, a
// lock log, and per-thread counters.
type thread struct {
	rt    *Runtime
	tid   int
	skey  int   // scheduler task key (0 when free-running)
	base  int64 // bottom of this thread's stack region
	sp    int64 // next free stack cell
	locks *locklog.Log
	rng   uint64

	frame int64 // current frame base

	retVal int64

	// noYield suppresses scheduling points during the nested evaluation of
	// a locked check's lock expression: elision removes that evaluation, so
	// yielding inside it would misalign decision sequences across elision
	// configs and break cross-config replay.
	noYield int

	nAccess  int64
	nDynamic int64
	nLockChk int64
	nBarrier int64
	nElided  int64

	// regs is the VM engine's register stack: each flat frame claims a
	// window of NumRegs cells. cstrs is its pending C-string stack, filled
	// by FCString instructions and consumed by the following FBuiltin.
	regs  []int64
	cstrs []string
}

func (rt *Runtime) newThread(tid int) *thread {
	base := rt.stackBase + int64(tid-1)*int64(rt.cfg.StackCells)
	return &thread{
		rt:    rt,
		tid:   tid,
		base:  base,
		sp:    base,
		locks: locklog.New(),
		rng:   uint64(rt.cfg.SeedRand)*2654435761 + uint64(tid)*0x9e3779b97f4a7c15 + 1,
	}
}

func (t *thread) fail(pos token.Pos, format string, args ...any) {
	panic(threadFailure{msg: fmt.Sprintf(format, args...), pos: pos})
}

// interruptPanic unwinds a thread torn down by Runtime.Interrupt; the
// epilogue recovers it without reporting.
type interruptPanic struct{}

// interruptCheck unwinds when the runtime's interrupt flag is raised. It
// runs at every scheduling point; when the run is not interruptible the
// cost is one nil comparison.
func (t *thread) interruptCheck() {
	if t.rt.intr != nil && t.rt.intr.Load() {
		panic(interruptPanic{})
	}
}

// schedDown unwinds after a controller call returned false: abort teardown
// (Runtime.Interrupt) unwinds silently, deadlock teardown fails the thread
// with the diagnostic.
func (t *thread) schedDown(pos token.Pos) {
	if t.rt.ctl != nil && t.rt.ctl.Aborted() {
		panic(interruptPanic{})
	}
	t.fail(pos, "deadlock: all threads blocked")
}

// schedPoint offers the execution token to the cooperative scheduler (when
// one is installed). A false return means the controller tore the run down
// (deadlock or abort) and this thread must unwind.
func (t *thread) schedPoint(p sched.Point) {
	t.interruptCheck()
	if t.rt.ctl == nil || t.noYield > 0 {
		return
	}
	if !t.rt.ctl.YieldPoint(t.skey, p) {
		t.schedDown(token.Pos{})
	}
}

// ---------------------------------------------------------------------------
// memory access

func (t *thread) loadRaw(addr int64) int64 {
	return t.rt.pages.load(addr)
}

func (t *thread) storeRaw(addr, v int64) {
	t.rt.pages.store(addr, v)
}

func (t *thread) checkAddr(addr int64, pos token.Pos) {
	if addr <= 0 || addr >= t.rt.memLen {
		t.fail(pos, "invalid memory access at 0x%x (null or out of bounds)", addr)
	}
}

// applyCheck runs the access's runtime check.
func (t *thread) applyCheck(addr int64, chk ir.Check, write bool) {
	switch chk.Kind {
	case ir.CheckDynamic:
		t.nDynamic++
		var c *shadow.Conflict
		sid := t.rt.siteIDs[chk.Site]
		if write {
			c = t.rt.shadow.ChkWrite(t.tid, addr, sid)
		} else {
			c = t.rt.shadow.ChkRead(t.tid, addr, sid)
		}
		if t.rt.tel != nil {
			t.rt.tel.DynamicCheck(t.tid, chk.Site, write, t.locks.Count() > 0, c != nil)
		}
		if tr := t.rt.tracer; tr != nil {
			k := telemetry.KindChkRead
			if write {
				k = telemetry.KindChkWrite
			}
			if c != nil {
				k = telemetry.KindConflict
			}
			tr.Append(k, t.tid, chk.Site, addr, 0)
		}
		if c != nil {
			t.rt.counters.Conflicts.Add(1)
			t.rt.reportConflict(ReportRace, t.rt.prog.Sites[chk.Site].Pos, c.Error(), c)
		}
	case ir.CheckLocked:
		t.nLockChk++
		t.noYield++
		lockAddr := t.eval(chk.Lock)
		t.noYield--
		held := t.locks.Held(lockAddr)
		if t.rt.tel != nil {
			t.rt.tel.LockedCheck(t.tid, chk.Site, !held)
		}
		if tr := t.rt.tracer; tr != nil {
			k := telemetry.KindLockedCheck
			if !held {
				k = telemetry.KindLockViolation
			}
			tr.Append(k, t.tid, chk.Site, addr, lockAddr)
		}
		if !held {
			t.rt.counters.LockViolations.Add(1)
			site := t.rt.prog.Sites[chk.Site]
			t.rt.report(ReportLock, site.Pos,
				fmt.Sprintf("lock violation: thread %d accessed %s @ %s: %d without holding its lock",
					t.tid, site.LValue, site.Pos.File, site.Pos.Line))
		}
	case ir.CheckElided:
		// The static pass removed the runtime work but left the site, so
		// the avoided check is still attributable in the profile.
		t.nElided++
		if t.rt.tel != nil {
			t.rt.tel.ElidedCheck(t.tid, chk.Site)
		}
		t.rt.tracer.Append(telemetry.KindElidedCheck, t.tid, chk.Site, addr, 0)
	}
}

func (t *thread) observe(addr int64, write bool, site int) {
	if obs := t.rt.cfg.Observer; obs != nil {
		obs.Access(t.tid, addr, write, t.locks, site)
	}
}

// countAccess tallies memory accesses for the %dynamic metric. Stack-frame
// slots are excluded: locals model registers, and the paper's "proportion
// of memory accesses to dynamic objects" is over globals and heap.
//
// Shared (non-stack) accesses are also the anchor for cooperative
// scheduling points: check elision blanks a Load/Store's check but never
// removes the access itself, so the decision sequence stays aligned across
// elision configs — which is what lets a trace recorded unelided replay
// exactly under -elide (the soundness oracle).
func (t *thread) countAccess(addr int64) {
	if addr < t.rt.stackBase || addr >= t.rt.heapBase {
		t.nAccess++
		t.schedPoint(sched.PointCheck)
	}
}

// load performs a checked read.
func (t *thread) load(addr int64, chk ir.Check, pos token.Pos) int64 {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, false)
	t.observe(addr, false, chk.Site)
	return t.loadRaw(addr)
}

// store performs a checked write, issuing the reference-counting barrier
// when the slot statically holds a tracked pointer.
func (t *thread) store(addr, val int64, chk ir.Check, barrier bool, pos token.Pos) {
	t.checkAddr(addr, pos)
	t.countAccess(addr)
	t.applyCheck(addr, chk, true)
	t.observe(addr, true, chk.Site)
	if barrier && t.rt.rc != nil {
		old := t.loadRaw(addr)
		t.rt.rc.Barrier(t.tid, addr, old, val)
		t.rt.barriered.mark(addr)
		t.nBarrier++
	}
	t.storeRaw(addr, val)
}

// dynStore is used by builtins and teardown paths that write cells without
// static type knowledge: it barriers iff the cell was ever stored through a
// barrier.
func (t *thread) dynStore(addr, val int64) {
	if t.rt.rc != nil && t.rt.barriered.test(addr) {
		old := t.loadRaw(addr)
		t.rt.rc.Barrier(t.tid, addr, old, val)
		t.nBarrier++
	}
	t.storeRaw(addr, val)
}

// ---------------------------------------------------------------------------
// calls and frames

// invoke runs function fnIdx with the given arguments on whichever engine
// the runtime selected. Every entry into user code — the main call, direct
// and indirect calls, and spawned thread bodies — goes through here, so
// one runtime never mixes engines.
func (t *thread) invoke(fnIdx int, args []int64) int64 {
	if t.rt.useVM {
		return t.runFlat(fnIdx, args)
	}
	return t.runFunc(t.rt.prog.Funcs[fnIdx], args)
}

// pushFrame claims and zeroes a fresh frame for fn and stores the argument
// values (tracked pointer parameters through the barrier). It returns the
// frame base and the caller's frame pointer for popFrame.
func (t *thread) pushFrame(fn *ir.Func, args []int64) (frameBase, prevFrame int64) {
	frameBase = t.sp
	if frameBase+int64(fn.FrameSize) > t.base+int64(t.rt.cfg.StackCells) {
		t.fail(fn.Pos, "stack overflow in %s", fn.Name)
	}
	t.sp = frameBase + int64(fn.FrameSize)
	// Zero the frame (stack cells are recycled).
	t.rt.pages.clear(frameBase, int64(fn.FrameSize))
	prevFrame = t.frame
	t.frame = frameBase

	for i, v := range args {
		slot := fn.ParamSlots[i]
		if slot < len(fn.RCSlotSet) && fn.RCSlotSet[slot] && t.rt.rc != nil {
			t.rt.rc.Barrier(t.tid, frameBase+int64(slot), 0, v)
			t.rt.barriered.mark(frameBase + int64(slot))
			t.nBarrier++
		}
		t.storeRaw(frameBase+int64(slot), v)
	}
	return frameBase, prevFrame
}

// popFrame tears the frame down: the formal semantics zeroes a dead
// frame's cells; tracked pointer slots are nulled through the barrier so
// their referents' counts drop.
func (t *thread) popFrame(fn *ir.Func, frameBase, prevFrame int64) {
	for _, s := range fn.RCPtrSlots {
		addr := frameBase + int64(s)
		if old := t.loadRaw(addr); old != 0 && t.rt.rc != nil {
			t.rt.rc.Barrier(t.tid, addr, old, 0)
			t.nBarrier++
		}
		t.storeRaw(addr, 0)
	}
	t.frame = prevFrame
	t.sp = frameBase
}

// runFunc executes fn with the given argument values in a fresh frame and
// returns its result (the tree-walking engine).
func (t *thread) runFunc(fn *ir.Func, args []int64) int64 {
	frameBase, prevFrame := t.pushFrame(fn, args)
	t.retVal = 0
	t.execStmts(fn.Body)
	t.popFrame(fn, frameBase, prevFrame)
	return t.retVal
}

// ---------------------------------------------------------------------------
// statements

// ctl is the control-flow signal of statement execution.
type ctl int

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

func (t *thread) execStmts(ss []ir.Stmt) ctl {
	for _, s := range ss {
		if c := t.exec(s); c != ctlNone {
			return c
		}
	}
	return ctlNone
}

func (t *thread) exec(s ir.Stmt) ctl {
	switch s := s.(type) {
	case *ir.SExpr:
		t.eval(s.E)
		return ctlNone
	case *ir.SIf:
		if t.eval(s.C) != 0 {
			return t.execStmts(s.Then)
		}
		return t.execStmts(s.Else)
	case *ir.SLoop:
		first := true
		for {
			if !(s.PostFirst && first) {
				if s.Cond != nil && t.eval(s.Cond) == 0 {
					return ctlNone
				}
			}
			first = false
			c := t.execStmts(s.Body)
			switch c {
			case ctlBreak:
				return ctlNone
			case ctlReturn:
				return ctlReturn
			}
			if s.Post != nil {
				t.eval(s.Post)
			}
			if s.PostFirst {
				if s.Cond != nil && t.eval(s.Cond) == 0 {
					return ctlNone
				}
			}
		}
	case *ir.SReturn:
		if s.E != nil {
			t.retVal = t.eval(s.E)
		} else {
			t.retVal = 0
		}
		return ctlReturn
	case *ir.SBreak:
		return ctlBreak
	case *ir.SContinue:
		return ctlContinue
	case *ir.SSwitch:
		v := t.eval(s.X)
		start := -1
		dflt := -1
		for i := range s.Arms {
			if s.IsDflt[i] {
				dflt = i
				continue
			}
			if s.Values[i] == v {
				start = i
				break
			}
		}
		if start < 0 {
			start = dflt
		}
		if start < 0 {
			return ctlNone
		}
		for i := start; i < len(s.Arms); i++ {
			c := t.execStmts(s.Arms[i])
			switch c {
			case ctlBreak:
				return ctlNone
			case ctlContinue, ctlReturn:
				return c
			}
		}
		return ctlNone
	}
	t.fail(token.Pos{}, "internal: unknown statement %T", s)
	return ctlNone
}

// ---------------------------------------------------------------------------
// do-while handling note: SLoop with PostFirst runs the body before the
// first condition test; Post still runs between iterations.

// eval evaluates an expression.
func (t *thread) eval(e ir.Expr) int64 {
	switch e := e.(type) {
	case *ir.Const:
		return e.V
	case *ir.StrAddr:
		return t.rt.prog.StringAddr[e.Idx]
	case *ir.FrameAddr:
		return t.frame + int64(e.Slot)
	case *ir.FuncVal:
		return ir.EncodeFunc(e.Index)
	case *ir.Load:
		return t.load(t.eval(e.Addr), e.Chk, token.Pos{})
	case *ir.Bin:
		return t.binop(e)
	case *ir.Logic:
		l := t.eval(e.L)
		if e.Or {
			if l != 0 {
				return 1
			}
			return boolVal(t.eval(e.R) != 0)
		}
		if l == 0 {
			return 0
		}
		return boolVal(t.eval(e.R) != 0)
	case *ir.Un:
		x := t.eval(e.X)
		switch e.Op {
		case ir.UnNeg:
			return -x
		case ir.UnNot:
			return boolVal(x == 0)
		case ir.UnBitNot:
			return ^x
		}
	case *ir.CondE:
		if t.eval(e.C) != 0 {
			return t.eval(e.T)
		}
		return t.eval(e.F)
	case *ir.Store:
		addr := t.eval(e.Addr)
		v := t.eval(e.Val)
		t.store(addr, v, e.Chk, e.Barrier, token.Pos{})
		return v
	case *ir.IncDec:
		addr := t.eval(e.Addr)
		old := t.load(addr, e.ChkR, token.Pos{})
		nv := old + e.Delta
		t.store(addr, nv, e.ChkW, e.Barrier, token.Pos{})
		if e.Post {
			return old
		}
		return nv
	case *ir.Compound:
		addr := t.eval(e.Addr)
		old := t.load(addr, e.ChkR, e.Pos)
		rhs := t.eval(e.RHS)
		nv := t.arith(e.Op, old, rhs, e.Pos)
		t.store(addr, nv, e.ChkW, e.Barrier, e.Pos)
		return nv
	case *ir.Call:
		return t.call(e)
	case *ir.BuiltinCall:
		return t.builtin(e)
	case *ir.Scast:
		return t.scast(e)
	}
	t.fail(token.Pos{}, "internal: unknown expression %T", e)
	return 0
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (t *thread) binop(e *ir.Bin) int64 {
	l := t.eval(e.L)
	r := t.eval(e.R)
	return t.arith(e.Op, l, r, e.Pos)
}

func (t *thread) arith(op ir.OpKind, l, r int64, pos token.Pos) int64 {
	switch op {
	case ir.OpAdd:
		return l + r
	case ir.OpSub:
		return l - r
	case ir.OpMul:
		return l * r
	case ir.OpDiv:
		if r == 0 {
			t.fail(pos, "division by zero")
		}
		return l / r
	case ir.OpMod:
		if r == 0 {
			t.fail(pos, "modulo by zero")
		}
		return l % r
	case ir.OpAnd:
		return l & r
	case ir.OpOr:
		return l | r
	case ir.OpXor:
		return l ^ r
	case ir.OpShl:
		return l << uint(r&63)
	case ir.OpShr:
		return l >> uint(r&63)
	case ir.OpEq:
		return boolVal(l == r)
	case ir.OpNe:
		return boolVal(l != r)
	case ir.OpLt:
		return boolVal(l < r)
	case ir.OpLe:
		return boolVal(l <= r)
	case ir.OpGt:
		return boolVal(l > r)
	case ir.OpGe:
		return boolVal(l >= r)
	}
	t.fail(pos, "internal: unknown operator")
	return 0
}

func (t *thread) call(e *ir.Call) int64 {
	args := make([]int64, len(e.Args))
	for i, a := range e.Args {
		args[i] = t.eval(a)
	}
	idx := e.Target
	if idx < 0 {
		v := t.eval(e.Fn)
		idx = ir.DecodeFunc(v)
		if idx < 0 || idx >= len(t.rt.prog.Funcs) {
			t.fail(e.Pos, "call through invalid function pointer 0x%x", v)
		}
	}
	fn := t.rt.prog.Funcs[idx]
	if len(args) != fn.NumParams {
		t.fail(e.Pos, "call to %s with %d args, want %d", fn.Name, len(args), fn.NumParams)
	}
	return t.invoke(idx, args)
}

// scast implements the sharing cast: verify the source is the sole
// reference (the oneref check of the formal semantics runs before the
// assignment it guards: |{b : M(b).value = a}| = 1, the source slot being
// that one), null the source slot, clear the object's reader/writer sets —
// after a cast, past accesses no longer constitute unintended sharing.
func (t *thread) scast(e *ir.Scast) int64 {
	return t.scastAt(t.eval(e.Addr), e)
}

// scastAt is the engine-shared body of the sharing cast, entered once the
// source l-value's address is known (the VM reaches it from FScast).
func (t *thread) scastAt(addr int64, e *ir.Scast) int64 {
	t.checkAddr(addr, e.Pos)
	t.schedPoint(sched.PointScast)
	v := t.load(addr, e.ChkR, e.Pos)
	if v == 0 {
		t.store(addr, 0, e.ChkW, e.Barrier, e.Pos)
		return 0 // casting NULL is trivially safe
	}
	// Attribute the oneref check to the cast's read site (elision keeps
	// the site index alive even when the access check itself is blanked).
	scSite := -1
	if e.ChkR.Kind != ir.CheckNone {
		scSite = e.ChkR.Site
	}
	failed := false
	if t.rt.rc != nil {
		obj := t.rt.resolveObj(v)
		if obj != 0 {
			if n := t.rt.rc.Count(t.tid, obj); n > 1 {
				failed = true
				t.rt.report(ReportOneRef, e.Pos,
					fmt.Sprintf("%s: sharing cast to %s failed: %d references to object 0x%x exist",
						e.Pos, e.TargetDesc, n, obj))
			}
			if size := t.rt.blockSize(obj); size > 0 {
				t.rt.shadow.ClearRange(obj, size)
			}
		}
	}
	if t.rt.tel != nil {
		t.rt.tel.Scast(t.tid, scSite, failed)
	}
	if tr := t.rt.tracer; tr != nil {
		k := telemetry.KindScast
		if failed {
			k = telemetry.KindOnerefFail
		}
		tr.Append(k, t.tid, scSite, addr, v)
	}
	if failed {
		t.rt.counters.OnerefFailures.Add(1)
	}
	t.store(addr, 0, e.ChkW, e.Barrier, e.Pos)
	return v
}

// rand is a per-thread xorshift generator (deterministic given the seed).
func (t *thread) rand() int64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return int64(x >> 1)
}
