package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// damageArgs is the 6-point grid the damaged-journal tests resume.
func damageArgs(checkpoint string) []string {
	return []string{"grid", "-matrix", "uniform", "-k", "3", "-eps", "0.15,0.25,0.35",
		"-delta", "0.1,0.2", "-n", "2000", "-trials", "4", "-seed", "7", "-json", "-checkpoint", checkpoint}
}

// salvagedField matches the "salvaged" field that ends a grid's JSON
// result when a resume dropped damaged lines.
var salvagedField = regexp.MustCompile(`,\n  "salvaged": [0-9]+\n`)

// freshGrid runs damageArgs from an empty journal and returns its stdout
// and finished journal.
func freshGrid(t testing.TB) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fresh.json")
	var out strings.Builder
	if err := run(damageArgs(path), &out); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), journal
}

// resumeGrid resumes damageArgs from journal and returns its stdout and
// finished journal.
func resumeGrid(t *testing.T, journal []byte) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(damageArgs(path), &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	finished, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), finished
}

// TestResumeDropsRelabeledEntry is the regression for a journal line
// whose key was damaged: the line of point 3 relabeled as point 1 keeps
// its CRC, which covers only the result. It must count as salvaged, so
// point 1 keeps its own line, point 3 is recomputed, and stdout is a
// fresh run's but for "salvaged": 1.
func TestResumeDropsRelabeledEntry(t *testing.T) {
	want, journal := freshGrid(t)
	relabeled := bytes.Replace(journal, []byte("\n"+`{"key":3,`), []byte("\n"+`{"key":1,`), 1)
	if bytes.Equal(relabeled, journal) {
		t.Fatal("test setup: no line of key 3")
	}
	got, finished := resumeGrid(t, relabeled)
	if !strings.Contains(got, `"salvaged": 1`+"\n") {
		t.Fatalf("resume did not count the relabeled line as salvaged:\n%s", got)
	}
	if got = salvagedField.ReplaceAllString(got, "\n"); got != want {
		t.Fatalf("resumed stdout differs from a fresh run's beyond \"salvaged\":\n%s\nwant\n%s", got, want)
	}
	if !bytes.Equal(finished, journal) {
		t.Fatalf("finished journal differs from a fresh run's:\n%s\nwant\n%s", finished, journal)
	}
}

// maxDamageOps bounds a damage program, so each fuzz input resumes in
// milliseconds.
const maxDamageOps = 16

// damage applies the damage program ops to a journal's entry lines and
// returns the damaged lines. Each op is four bytes, kind, a, b and c,
// with at = a<<8|b:
//
//	kind%4 == 0: flip the bits c of the byte at at mod len;
//	kind%4 == 1: cut the lines at at mod (len+1);
//	kind%4 == 2: insert a copy of line a before line b (mod the count);
//	kind%4 == 3: swap lines a and b.
//
// A line keeps its newline where it has one, so a copy or swap of an
// unterminated last line joins it to the next. Copies of joined lines
// can double a line, so damage runs at most maxDamageOps ops and stops
// once the lines have grown past four times their size.
func damage(body, ops []byte) []byte {
	limit := 4 * len(body)
	body = append([]byte{}, body...)
	for i := 0; i < maxDamageOps && len(ops) >= 4 && len(body) <= limit; i, ops = i+1, ops[4:] {
		if len(body) == 0 {
			break
		}
		at := int(binary.BigEndian.Uint16(ops[1:3]))
		lines := bytes.SplitAfter(body, []byte("\n"))
		a, b := int(ops[1])%len(lines), int(ops[2])%len(lines)
		switch ops[0] % 4 {
		case 0:
			body[at%len(body)] ^= ops[3]
		case 1:
			body = body[:at%(len(body)+1)]
		case 2:
			lines = append(lines[:b], append([][]byte{lines[a]}, lines[b:]...)...)
			body = bytes.Join(lines, nil)
		case 3:
			lines[a], lines[b] = lines[b], lines[a]
			body = bytes.Join(lines, nil)
		}
	}
	return body
}

// FuzzResumeDamagedJournal: a complete journal of the 6-point grid,
// damaged in its entry lines (flipped bytes, cut, duplicated or
// swapped lines; see damage), resumes to a fresh run's stdout, apart
// from "salvaged", and to a fresh run's journal, byte for byte. The
// header line stays whole: a damaged header is the one fatal case.
func FuzzResumeDamagedJournal(f *testing.F) {
	want, journal := freshGrid(f)
	nl := bytes.IndexByte(journal, '\n') + 1
	header, body := journal[:nl], journal[nl:]
	f.Add([]byte{})                             // undamaged
	f.Add([]byte{0, 0x01, 0x00, 0x04})          // one bit of a result
	f.Add([]byte{1, 0x02, 0x00, 0})             // cut mid-line
	f.Add([]byte{2, 4, 1, 0})                   // a duplicate of the last line, early
	f.Add([]byte{3, 0, 5, 0})                   // the first and last lines swapped
	f.Add([]byte{1, 0x02, 0x00, 0, 3, 6, 2, 0}) // cut, then the torn line moved
	f.Fuzz(func(t *testing.T, ops []byte) {
		damaged := append(append([]byte{}, header...), damage(body, ops)...)
		got, finished := resumeGrid(t, damaged)
		if got = salvagedField.ReplaceAllString(got, "\n"); got != want {
			t.Fatalf("resumed stdout differs from a fresh run's beyond \"salvaged\":\n%s\nwant\n%s", got, want)
		}
		if !bytes.Equal(finished, journal) {
			t.Fatalf("finished journal differs from a fresh run's:\n%q\nwant\n%q", finished, journal)
		}
	})
}
