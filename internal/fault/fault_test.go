package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := OS{}
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(filepath.Join(sub, "x.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Append(filepath.Join(sub, "x.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(filepath.Join(sub, "x.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Fatalf("read %q, want %q", data, "hello world")
	}
	if err := fs.Truncate(filepath.Join(sub, "x.txt"), 5); err != nil {
		t.Fatal(err)
	}
	if data, _ = fs.ReadFile(filepath.Join(sub, "x.txt")); string(data) != "hello" {
		t.Fatalf("after truncate: %q", data)
	}
	if err := fs.Rename(filepath.Join(sub, "x.txt"), filepath.Join(sub, "y.txt")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "y.txt" {
		t.Fatalf("ReadDir = %v, want [y.txt]", names)
	}
	if err := fs.Remove(filepath.Join(sub, "y.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestInjectFailsNthOp(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	fs := NewInject(OS{}, Rule{Op: "sync", N: 2, Err: boom})
	f, err := fs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("second sync = %v, want injected error", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("rules fire once; third sync = %v", err)
	}
}

func TestInjectTearWritesPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewInject(OS{}, Rule{Op: "write", N: 2, Tear: true, TearAt: 3, Err: errors.New("torn")})
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("bbbb"))
	if err == nil || n != 3 {
		t.Fatalf("torn write returned n=%d err=%v, want 3 bytes and an error", n, err)
	}
	f.Close()
	data, _ := os.ReadFile(path)
	if string(data) != "aaaabbb" {
		t.Fatalf("file = %q, want %q (4 full + 3 torn)", data, "aaaabbb")
	}
}

func TestInjectTearByteOffset(t *testing.T) {
	// A TearByte rule tears whichever write spans the cumulative offset.
	for k := int64(0); k < 8; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		fs := NewInject(OS{}, Rule{Op: "write", TearByte: k + 1, Err: errors.New("torn")})
		f, _ := fs.Create(path)
		var wrote int64
		for _, chunk := range []string{"abc", "defgh"} {
			n, err := f.Write([]byte(chunk))
			wrote += int64(n)
			if err != nil {
				break
			}
		}
		f.Close()
		if wrote != k {
			t.Fatalf("tearbyte %d: wrote %d bytes, want %d", k, wrote, k)
		}
		data, _ := os.ReadFile(path)
		if string(data) != "abcdefgh"[:k] {
			t.Fatalf("tearbyte %d: file = %q, want %q", k, data, "abcdefgh"[:k])
		}
	}
}

func TestInjectOpsCountAndTrace(t *testing.T) {
	dir := t.TempDir()
	fs := NewInject(OS{})
	f, _ := fs.Create(filepath.Join(dir, "f"))
	f.Write([]byte("x"))
	f.Sync()
	f.Close()
	// create, write, sync, close
	if fs.Ops() != 4 {
		t.Fatalf("Ops = %d, want 4", fs.Ops())
	}
}

func TestInjectCrashUsesKillHook(t *testing.T) {
	dir := t.TempDir()
	killed := false
	old := Kill
	Kill = func() { killed = true }
	defer func() { Kill = old }()
	fs := NewInject(OS{}, Rule{Op: "rename", N: 1, Crash: true})
	if err := fs.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_ = fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b"))
	if !killed {
		t.Fatal("crash rule did not invoke Kill")
	}
}

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
	}{
		{"crash:append:7", Rule{Op: "append", N: 7, Crash: true}},
		{"crash:*:3", Rule{Op: "", N: 3, Crash: true}},
		{"tearcrash:write:2:10", Rule{Op: "write", N: 2, Tear: true, TearAt: 10, Crash: true}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.in)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", c.in, err)
		}
		got.Err = nil
		if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if r, err := ParseRule("fail:sync:2"); err != nil || r.Err == nil || r.Op != "sync" || r.N != 2 {
		t.Errorf("fail rule: %+v err=%v", r, err)
	}
	if r, err := ParseRule("tearbyte:5"); err != nil || r.TearByte != 6 || r.Op != "write" {
		t.Errorf("tearbyte rule: %+v err=%v", r, err)
	}
	for _, bad := range []string{"", "crash", "crash:write", "crash:write:0", "tear:write:1", "frob:1", "tearbyte:x"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) should fail", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv("TEST_FAULT_RULES", "crash:append:2, fail:sync:1")
	rules, err := FromEnv("TEST_FAULT_RULES")
	if err != nil || len(rules) != 2 {
		t.Fatalf("FromEnv = %v, %v", rules, err)
	}
	if !rules[0].Crash || rules[0].Op != "append" || rules[0].N != 2 {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	t.Setenv("TEST_FAULT_RULES", "")
	if rules, err := FromEnv("TEST_FAULT_RULES"); err != nil || rules != nil {
		t.Errorf("empty env should produce no rules, got %v, %v", rules, err)
	}
	t.Setenv("TEST_FAULT_RULES", "nope")
	if _, err := FromEnv("TEST_FAULT_RULES"); err == nil {
		t.Error("bad env rule should error")
	}
}

func TestManualClock(t *testing.T) {
	start := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatalf("Now = %v", m.Now())
	}
	a := m.After(10 * time.Second)
	b := m.After(30 * time.Second)
	imm := m.After(0)
	select {
	case <-imm:
	default:
		t.Fatal("After(0) should fire immediately")
	}
	if m.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", m.Pending())
	}
	m.Advance(9 * time.Second)
	select {
	case <-a:
		t.Fatal("timer fired early")
	default:
	}
	m.Advance(1 * time.Second)
	select {
	case ts := <-a:
		if !ts.Equal(start.Add(10 * time.Second)) {
			t.Fatalf("fired at %v", ts)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	m.Advance(time.Hour)
	<-b
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", m.Pending())
	}
}
