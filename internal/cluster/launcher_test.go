package cluster

import (
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
)

// launcher runs the real binaries for the env-gated binary smokes
// (TestClusterSmoke, TestTraceSmoke, TestExploreSmoke): it builds the
// cmd/ packages once per test and starts processes that are killed when
// the test ends.
type launcher struct {
	t   *testing.T
	dir string // holds the built binaries; also a per-test scratch dir
}

// newLauncher builds each named command under cmd/ into a temporary
// directory.
func newLauncher(t *testing.T, cmds ...string) *launcher {
	t.Helper()
	l := &launcher{t: t, dir: t.TempDir()}
	for _, name := range cmds {
		cmd := exec.Command("go", "build", "-o", l.bin(name), "./cmd/"+name)
		cmd.Dir = "../.." // module root; the test runs in internal/cluster
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return l
}

// bin returns the path of a built command.
func (l *launcher) bin(name string) string { return filepath.Join(l.dir, name) }

// start runs a built command with args, its stderr to stderr, and kills
// it when the test ends.
func (l *launcher) start(name string, stderr io.Writer, args ...string) *exec.Cmd {
	l.t.Helper()
	cmd := exec.Command(l.bin(name), args...)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		l.t.Fatalf("starting %s: %v", name, err)
	}
	l.t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// freeAddr returns a loopback host:port that was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// awaitReady waits until addr's /readyz answers 200.
func awaitReady(t *testing.T, name, addr string) {
	t.Helper()
	await(t, name+" ready", func() bool {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}
