package main_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles esr-lint into a temp dir and returns the binary
// path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "esr-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building esr-lint: %v\n%s", err, out)
	}
	return bin
}

// TestVettoolHandshake checks the cmd/go tool-identification probes.
func TestVettoolHandshake(t *testing.T) {
	bin := buildTool(t)

	out, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("-V=full: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "esr-lint version ") {
		t.Errorf("-V=full output %q does not identify the tool", out)
	}

	out, err = exec.Command(bin, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("-flags: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("-flags output %q, want []", out)
	}
}

// TestVettoolClean runs the full go vet protocol over real engine
// packages, which must lint clean.
func TestVettoolClean(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/core", "./internal/storage", "./internal/wire", "./internal/metrics")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean packages: %v\n%s", err, out)
	}
}

// TestVettoolReportsViolations runs go vet over lockorder's exit-rule
// golden package and expects the known diagnostics and a non-zero exit.
func TestVettoolReportsViolations(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/analysis/lockorder/testdata/src/a")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on violating package succeeded; output:\n%s", out)
	}
	if !strings.Contains(string(out), "return while e.mu is still locked") {
		t.Errorf("vet output missing lockorder exit-rule diagnostic:\n%s", out)
	}
}
