package main

// Child daemons and the generator's HTTP connections.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// dirs locates the checkout and the places the benchmark may write.
type dirs struct {
	root string // repository root (holds go.mod of module leaksig)
	bin  string // built daemons
	out  string // bench/out: traces, breakdown, child stderr
	tmp  string // per-process scratch, removed at exit
}

func findDirs() (*dirs, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, root := range []string{cwd, filepath.Dir(cwd)} {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module leaksig\n")) {
			d := &dirs{
				root: root,
				bin:  filepath.Join(root, ".bench_build", "bin"),
				out:  filepath.Join(root, "bench", "out"),
			}
			d.tmp = filepath.Join(d.out, fmt.Sprintf("tmp-%d", os.Getpid()))
			for _, p := range []string{d.bin, d.tmp} {
				if err := os.MkdirAll(p, 0o755); err != nil {
					return nil, err
				}
			}
			return d, nil
		}
	}
	return nil, errors.New("bench: run from the repository root (go.mod of module leaksig not found)")
}

// buildDaemons compiles the two daemons the workloads drive. The go
// build cache makes every call after the first a staleness check.
func (d *dirs) buildDaemons() error {
	cmd := exec.Command("go", "build", "-o", d.bin+string(filepath.Separator), "./cmd/leakstream", "./cmd/sigserver")
	cmd.Dir = d.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return nil
}

// cleanup tracks everything that must not outlive the process: children
// and the scratch directory. It runs on every exit path.
var cleanup struct {
	mu       sync.Mutex
	children []*child
	tmp      string
}

func runCleanup() {
	cleanup.mu.Lock()
	cs := append([]*child(nil), cleanup.children...)
	tmp := cleanup.tmp
	cleanup.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
	if tmp != "" {
		os.RemoveAll(tmp)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// CPU placement. While a daemon workload runs, the generator's threads
// are confined to the first allowed CPU and the daemons to the rest.
// Left to the kernel, generator and daemon threads drift between the two
// CPUs every few seconds, and a request that crosses CPUs pays an idle
// wake-up: the same commit then reads 0.5 ms or 1.1 ms median vet latency
// depending on where the threads sat (README, "CPU placement"). The
// in-process workloads run on the daemons' CPUs for the same reason. On a
// host with one CPU nothing is pinned.
type cpuMask [16]uint64 // 1,024 CPUs, the kernel's default cpu_set_t

func (m *cpuMask) get(tid int) {
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

func (m *cpuMask) set(tid int) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

var cpus struct {
	all, generator, daemons cpuMask
}

func init() {
	cpus.all.get(0)
	cpus.generator, cpus.daemons = cpus.all, cpus.all
	first := -1
	for i := 0; i < len(cpus.all)*64; i++ {
		if cpus.all[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		// A second CPU exists: split.
		cpus.generator = cpuMask{}
		cpus.generator[first/64] = 1 << (first % 64)
		cpus.daemons[first/64] &^= 1 << (first % 64)
		return
	}
}

// pinProcess applies m to every thread of this process; threads created
// later inherit it from their creator.
func pinProcess(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			m.set(tid)
		}
	}
}

// child is one daemon under test. Its stdout is drained continuously (an
// undrained pipe back-pressures leakstream's verdict writer and stalls
// the shard); its stderr goes to a file under bench/out.
type child struct {
	name       string
	cmd        *exec.Cmd
	stderrPath string
	drained    chan struct{}
	stopOnce   sync.Once
}

// startChild launches bin with args. onLine, when non-nil, receives each
// stdout line (without the newline; valid only during the call).
func startChild(d *dirs, name, bin string, args []string, onLine func([]byte)) (*child, error) {
	c := &child{name: name, stderrPath: filepath.Join(d.out, name+".stderr.log"), drained: make(chan struct{})}
	stderr, err := os.Create(c.stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor
	c.cmd = exec.Command(filepath.Join(d.bin, bin), args...)
	c.cmd.Stderr = stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// A child inherits the affinity of the thread that forks it.
	runtime.LockOSThread()
	var own cpuMask
	own.get(0)
	cpus.daemons.set(0)
	err = c.cmd.Start()
	own.set(0)
	runtime.UnlockOSThread()
	if err != nil {
		return nil, err
	}
	cleanup.mu.Lock()
	cleanup.children = append(cleanup.children, c)
	cleanup.mu.Unlock()
	go func() {
		defer close(c.drained)
		if onLine == nil {
			io.Copy(io.Discard, stdout)
			return
		}
		br := bufio.NewReaderSize(stdout, 1<<20)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 1 {
				onLine(line[:len(line)-1])
			}
			if err != nil {
				return
			}
		}
	}()
	return c, nil
}

// stop sends SIGTERM, waits for the drain goroutine and the process, and
// kills after five seconds. Safe to call more than once.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		c.cmd.Process.Signal(syscall.SIGTERM)
		timer := time.AfterFunc(5*time.Second, func() { c.cmd.Process.Kill() })
		<-c.drained
		c.cmd.Wait()
		timer.Stop()
		cleanup.mu.Lock()
		for i, x := range cleanup.children {
			if x == c {
				cleanup.children = append(cleanup.children[:i], cleanup.children[i+1:]...)
				break
			}
		}
		cleanup.mu.Unlock()
	})
}

// stderrTail returns the last lines the child logged, for failure reports.
func (c *child) stderrTail() string {
	b, err := os.ReadFile(c.stderrPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuSeconds is the child's utime+stime from /proc/<pid>/stat.
func (c *child) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
}

// hwmMB reads a process's peak resident set (VmHWM) in MB.
func hwmMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func waitReady(addr string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// loopback serves h on a free loopback port until the returned stop.
func loopback(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	return "http://" + l.Addr().String(), func() { srv.Close() }, nil
}

// conn is one keep-alive HTTP/1.1 connection driven by a single
// goroutine: pre-built request bytes out, one response in. It keeps the
// generator to one goroutine per connection with no transport hops.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *conn) close() { h.c.Close() }

// postHeader pre-builds the request head for a body of n bytes.
func postHeader(path, tenant string, n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n", path, n)
	if tenant != "" {
		fmt.Fprintf(&b, "X-Leaksig-Tenant: %s\r\n", tenant)
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

// post writes head+payload and returns the response status and body.
func (h *conn) post(head, payload []byte) (int, []byte, error) {
	bufs := net.Buffers{head, payload}
	if _, err := bufs.WriteTo(h.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// blockingConn is a keep-alive HTTP/1.1 connection on a blocking socket,
// for a sender that owns its OS thread: write(2) and read(2) park the
// thread in the kernel and the reply wakes it directly, without the Go
// netpoller's hand-off between threads adding its jitter to a latency
// measured in hundreds of microseconds.
type blockingConn struct {
	f   *os.File
	fd  int
	buf []byte
}

func dialBlocking(addr string) (*blockingConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	f, err := c.(*net.TCPConn).File() // a duplicate descriptor
	if err != nil {
		return nil, err
	}
	return &blockingConn{f: f, fd: int(f.Fd()) /* Fd switches it to blocking mode */, buf: make([]byte, 16<<10)}, nil
}

func (b *blockingConn) close() { b.f.Close() }

// roundTrip writes req and reads one response framed by Content-Length
// (every reply of the daemons' small synchronous endpoints is).
func (b *blockingConn) roundTrip(req []byte) (status int, body []byte, err error) {
	for len(req) > 0 {
		n, err := syscall.Write(b.fd, req)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		req = req[n:]
	}
	for n := 0; ; {
		m, err := syscall.Read(b.fd, b.buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		if m == 0 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		n += m
		head := bytes.Index(b.buf[:n], []byte("\r\n\r\n"))
		if head < 0 {
			continue
		}
		length := scanInt(b.buf[:head], "Content-Length: ")
		if length < 0 || head+4+int(length) > len(b.buf) {
			return 0, nil, fmt.Errorf("response without a usable Content-Length: %q", b.buf[:head])
		}
		if end := head + 4 + int(length); n >= end {
			return int(scanInt(b.buf[:head], "HTTP/1.1 ")), b.buf[head+4 : end], nil
		}
	}
}

// scanInt reads the decimal number that follows key in line, or -1.
func scanInt(line []byte, key string) int64 {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return -1
	}
	i += len(key)
	var n int64
	j := i
	for ; j < len(line) && line[j] >= '0' && line[j] <= '9'; j++ {
		n = n*10 + int64(line[j]-'0')
	}
	if j == i {
		return -1
	}
	return n
}

// scanLeak reads the "leak" field of a verdict line: 1 true, 0 false,
// -1 absent.
func scanLeak(line []byte) int {
	i := bytes.Index(line, []byte(`"leak":`))
	if i < 0 || i+7 >= len(line) {
		return -1
	}
	switch line[i+7] {
	case 't':
		return 1
	case 'f':
		return 0
	}
	return -1
}
