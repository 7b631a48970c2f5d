package tree

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"bwc/internal/bwcerr"
	"bwc/internal/rat"
)

// Text renders the tree in the line-oriented platform format, the one
// for hand-written platforms and CLI use: a header comment, then one
// "name parent comm proc" line per node in preorder (so a round trip
// through ParseText keeps child order), where the root uses "-" for
// parent and comm, and proc is a rational or "inf" for a switch. A fifth
// "ret" column carries each link's result-return time d (Section 9); it
// appears only on platforms with a non-zero return cost, so forward-only
// trees keep their historical byte-exact rendering, which Fingerprint
// hashes. The empty tree renders as "".
func (t *Tree) Text() string { return string(t.appendText(nil)) }

func (t *Tree) appendText(b []byte) []byte {
	if len(t.nodes) == 0 {
		return b
	}
	withRet := t.HasResultReturn()
	if withRet {
		b = append(b, "# name parent comm proc ret\n"...)
	} else {
		b = append(b, "# name parent comm proc\n"...)
	}
	field := func(s string) {
		b = append(b, ' ')
		b = append(b, s...)
	}
	t.Walk(t.Root(), func(id NodeID) bool {
		n := &t.nodes[id]
		b = append(b, n.name...)
		if n.parent == None {
			field("-")
			field("-")
		} else {
			field(t.nodes[n.parent].name)
			field(n.commIn.String())
		}
		if n.hasProc {
			field(n.procTime.String())
		} else {
			field("inf")
		}
		if withRet {
			if n.parent == None {
				field("-")
			} else {
				field(n.retOut.String())
			}
		}
		b = append(b, '\n')
		return true
	})
	return b
}

// Fingerprint returns the platform's canonical key: the hex SHA-256 of
// Text. Trees with the same names, shape and weights share it; any
// weight change (a degraded link, a slowed node) yields a different one.
// A Tree is immutable, so the key is computed on the first call and
// memoized; concurrent first calls may each compute it, and all of them
// return the same value.
func (t *Tree) Fingerprint() string {
	if fp := t.fp.Load(); fp != nil {
		return *fp
	}
	sum := sha256.Sum256(t.appendText(nil))
	fp := hex.EncodeToString(sum[:])
	t.fp.Store(&fp)
	return fp
}

// ParseText reads the format Text writes from r. It also accepts
// rationals written as decimals ("0.25"), '#' comments anywhere and a
// missing or "-" ret field. Structural errors wrap bwcerr.ErrNotATree;
// their messages keep the "treeio:" prefix that clients see in
// not_a_tree responses and CLI errors.
func ParseText(r io.Reader) (*Tree, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	lineNo := 0
	seenRoot := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 4 && len(fields) != 5 {
			return nil, fmt.Errorf("treeio: line %d: want 4 or 5 fields (name parent comm proc [ret]), got %d: %w", lineNo, len(fields), bwcerr.ErrNotATree)
		}
		name, parent, commS, procS := fields[0], fields[1], fields[2], fields[3]
		retS := ""
		if len(fields) == 5 {
			retS = fields[4]
		}
		isRoot := parent == "-"
		if isRoot {
			if seenRoot {
				return nil, fmt.Errorf("treeio: line %d: second root %q: %w", lineNo, name, bwcerr.ErrNotATree)
			}
			if commS != "-" {
				return nil, fmt.Errorf("treeio: line %d: root must have comm '-': %w", lineNo, bwcerr.ErrNotATree)
			}
			if retS != "" && retS != "-" {
				return nil, fmt.Errorf("treeio: line %d: root must have ret '-': %w", lineNo, bwcerr.ErrNotATree)
			}
			seenRoot = true
			if procS == "inf" {
				b.RootSwitch(name)
			} else {
				proc, err := rat.Parse(procS)
				if err != nil {
					return nil, fmt.Errorf("treeio: line %d: proc: %v: %w", lineNo, err, bwcerr.ErrNotATree)
				}
				b.Root(name, proc)
			}
			continue
		}
		comm, err := rat.Parse(commS)
		if err != nil {
			return nil, fmt.Errorf("treeio: line %d: comm: %v: %w", lineNo, err, bwcerr.ErrNotATree)
		}
		if procS == "inf" {
			b.SwitchChild(parent, name, comm)
		} else {
			proc, err := rat.Parse(procS)
			if err != nil {
				return nil, fmt.Errorf("treeio: line %d: proc: %v: %w", lineNo, err, bwcerr.ErrNotATree)
			}
			b.Child(parent, name, comm, proc)
		}
		if retS != "" && retS != "-" {
			ret, err := rat.Parse(retS)
			if err != nil {
				return nil, fmt.Errorf("treeio: line %d: ret: %v: %w", lineNo, err, bwcerr.ErrNotATree)
			}
			b.Return(name, ret)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}
