package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// pinToOneCPU re-executes the benchmark bound to the highest-numbered
// CPU it may run on, unless it is bound to one already. The servers it
// starts inherit the binding, and Go sizes GOMAXPROCS from it.
//
// On a small virtual machine, a request whose client and server sit on
// different vCPUs pays a cross-vCPU wake-up that the host schedules
// unevenly: with the client and the server on different vCPUs,
// one-second throughput swung between 5k and 28k requests/s within a
// single hot_blocks run, and left unbound, hot_blocks run medians over
// five seeds spread by 44%, against 10% bound to one vCPU in the same
// hour.
func pinToOneCPU() error {
	var set [16]uint64 // room for 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpus, last := 0, -1
	for i := 0; i < int(n)*8; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus++
			last = i
		}
	}
	if cpus <= 1 {
		return nil
	}
	var one [16]uint64
	one[last/64] = 1 << (last % 64)
	// Affinity is per thread and survives execve, which runs on the
	// calling thread, so bind this thread and exec from it.
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// proc is one server child process listening on a loopback port.
type proc struct {
	name string
	addr string // host:port
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{} // closed once cmd.Wait has returned
}

// freeAddr reserves a loopback port by binding and releasing it. The
// child binds it a few milliseconds later; nothing else on the box
// competes for ephemeral loopback ports during a run.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc execs bin with args plus "-addr <addr>". The child gets
// SIGKILL if the benchmark dies first, so no server outlives a run.
func startProc(name, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, log: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait() //nolint:errcheck — exit status is reported through stop
		close(p.done)
	}()
	return p, nil
}

// url is the process's base URL.
func (p *proc) url() string { return "http://" + p.addr }

// waitHealthy polls /healthz until it answers 200, the process exits or
// the timeout passes.
func (p *proc) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot: %s", p.name, p.log.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %v", p.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit, and escalates to
// SIGKILL if the graceful drain takes longer than five seconds.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — exit is awaited below
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck — exit is awaited below
		<-p.done
	}
}

// cpuSeconds is the process's user+system CPU time so far, all threads.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after ")".
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB is the process's VmHWM (peak resident set) in MiB.
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailBuffer keeps the last max bytes a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
