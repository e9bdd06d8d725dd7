package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The serve workload is measured with the CPUs kept from going idle.
// On a virtual machine an idle CPU halts, and waking it for the next
// request waits until the host schedules it again. On a shared 2-vCPU
// VM that wait, not lvserve, set the serve p99 (see NOTES.md). An
// idle holder is a child process that spins one SCHED_IDLE thread per
// CPU. Linux runs a SCHED_IDLE thread only when nothing else on its
// CPU is runnable, and a waking thread preempts it at once, so lvserve
// and the load generator keep the whole machine while no CPU halts.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// idleHoldFlag runs perfbench as an idle holder instead of a workload.
const idleHoldFlag = "-idle-hold"

// idleHoldLife bounds a holder's life in case it is never stopped.
const idleHoldLife = 10 * time.Minute

// idleHold is a running idle-holder child.
type idleHold struct{ cmd *exec.Cmd }

// startIdleHold starts a holder and waits until each of its spinning
// threads has switched to SCHED_IDLE. It fails rather than spin at
// normal priority, which would take CPU from the program measured.
func startIdleHold(ctx context.Context) (*idleHold, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, idleHoldFlag)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var errb strings.Builder
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n') // EOF means it exited; Wait says why
	if strings.TrimSpace(line) != "ready" {
		werr := cmd.Wait()
		return nil, fmt.Errorf("idle holder did not start: %v: %s", werr, strings.TrimSpace(errb.String()))
	}
	return &idleHold{cmd: cmd}, nil
}

// stop kills the holder and reaps it.
func (h *idleHold) stop() {
	_ = h.cmd.Process.Kill() // already gone is fine; Wait reaps either way
	_ = h.cmd.Wait()         // killed: the exit status carries nothing
}

// holdIdle is the holder's body: one SCHED_IDLE spinning thread per
// CPU. It prints "ready" once every thread has switched policy, and
// exits when its parent goes away or idleHoldLife passes.
func holdIdle() error {
	parent := os.Getppid()
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // one P left for this watchdog goroutine
	switched := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread() // the policy belongs to this thread; never unlocked
			switched <- setIdlePolicy()
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-switched; err != nil {
			return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", err)
		}
	}
	fmt.Println("ready")
	deadline := time.Now().Add(idleHoldLife)
	for os.Getppid() == parent && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

// setIdlePolicy moves the calling thread to SCHED_IDLE.
func setIdlePolicy() error {
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}
