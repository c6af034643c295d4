package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one lotusx-server process.
type proc struct {
	cmd   *exec.Cmd
	addr  string // API listener, host:port
	debug string // debug listener (pprof), host:port
	log   *os.File
	done  chan struct{}
}

// freeAddrs finds n distinct free loopback ports.  All n stay bound until
// every one is found, so one call never returns the same port twice.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startProc launches the server binary with args plus its API and debug
// listeners; its output goes to logPath.
func startProc(bin string, args []string, addr, debug, logPath string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-quiet", "-addr", addr, "-debug-addr", debug)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server is told to drain if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, addr: addr, debug: debug, log: log, done: make(chan struct{})}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits until it has.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// vmHWM reads the process's peak resident set size in MiB from /proc.
func (p *proc) vmHWM() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// deployment is one launched topology: the process clients talk to plus
// every process it depends on.
type deployment struct {
	front *proc
	all   []*proc
}

func (d *deployment) stop() {
	for _, p := range d.all {
		p.stop()
	}
}

// peakRSS sums VmHWM over the deployment's processes.
func (d *deployment) peakRSS() (float64, error) {
	var sum float64
	for _, p := range d.all {
		mb, err := p.vmHWM()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// launch starts the workload's topology.  dir holds logs and, for a
// workload with ingests, a fresh corpus directory per launch.
func launch(w *Workload, bin, dir string, n int) (*deployment, error) {
	scale := strconv.Itoa(w.Scale)
	shards := strconv.Itoa(w.Shards)
	logf := func(role string) string { return filepath.Join(dir, fmt.Sprintf("%s-%d-%s.log", w.Name, n, role)) }
	d := &deployment{}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	// Every process's ports are chosen together, before any process starts
	// and binds its own.
	addrs, err := freeAddrs(2 * (w.Shards + 1))
	if err != nil {
		return nil, err
	}
	switch w.Topology {
	case "engine", "corpus":
		args := []string{"-dataset", "all", "-scale", scale, "-shards", shards}
		if w.IngestEvry > 0 {
			cdir := filepath.Join(dir, fmt.Sprintf("corpus-%d", n))
			if err := os.RemoveAll(cdir); err != nil {
				return nil, err
			}
			args = append(args, "-admin", "-corpus-dir", cdir)
		}
		p, err := startProc(bin, args, addrs[0], addrs[1], logf("server"))
		if err != nil {
			return nil, err
		}
		d.front, d.all = p, []*proc{p}
	case "router":
		var urls []string
		for i := 0; i < w.Shards; i++ {
			p, err := startProc(bin, []string{"-mode", "shard", "-dataset", w.Datasets[0], "-scale", scale,
				"-slice", fmt.Sprintf("%d/%d", i, w.Shards)}, addrs[2+2*i], addrs[3+2*i], logf(fmt.Sprintf("shard%d", i)))
			if err != nil {
				return fail(err)
			}
			d.all = append(d.all, p)
			urls = append(urls, "http://"+p.addr)
		}
		p, err := startProc(bin, []string{"-mode", "router", "-shard-servers", strings.Join(urls, ";")}, addrs[0], addrs[1], logf("router"))
		if err != nil {
			return fail(err)
		}
		d.front = p
		d.all = append(d.all, p)
	default:
		return nil, fmt.Errorf("unknown topology %q", w.Topology)
	}
	return d, nil
}
