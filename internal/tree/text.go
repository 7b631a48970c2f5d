package tree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

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
	return t.appendLines(b, t.Root(), withRet)
}

// appendLines appends the lines of the subtree rooted at id in preorder.
func (t *Tree) appendLines(b []byte, id NodeID, withRet bool) []byte {
	n := &t.nodes[id]
	b = append(b, n.name...)
	if n.parent == None {
		b = append(b, " - -"...)
	} else {
		b = append(b, ' ')
		b = append(b, t.nodes[n.parent].name...)
		b = append(b, ' ')
		b = n.commIn.Append(b)
	}
	if n.hasProc {
		b = append(b, ' ')
		b = n.procTime.Append(b)
	} else {
		b = append(b, " inf"...)
	}
	if withRet {
		if n.parent == None {
			b = append(b, " -"...)
		} else {
			b = append(b, ' ')
			b = n.retOut.Append(b)
		}
	}
	b = append(b, '\n')
	for _, c := range n.children {
		b = t.appendLines(b, c, withRet)
	}
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
	// 32 bytes hold a line of short names and small rationals, such as
	// "N17 N4 7/3 11/2 1/2".
	sum := sha256.Sum256(t.appendText(make([]byte, 0, 32*(len(t.nodes)+1))))
	fp := hex.EncodeToString(sum[:])
	t.fp.Store(&fp)
	return fp
}

// ParseText reads all of r and parses it as ParseString does.
func ParseText(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString reads the format Text writes. It also accepts rationals
// written as decimals ("0.25"), '#' comments anywhere, "\r\n" line ends
// and a missing or "-" ret field; a line may be of any length. Lines
// and fields are substrings of s; node names are copied out of it, so
// the tree does not keep s alive. Structural errors wrap
// bwcerr.ErrNotATree; their messages keep the "treeio:" prefix that
// clients see in not_a_tree responses and CLI errors.
func ParseString(s string) (*Tree, error) {
	b := NewBuilder()
	var fields [5]string
	seenRoot := false
	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line, _, _ = strings.Cut(line, "#")
		nf := splitFields(line, &fields)
		if nf == 0 {
			continue
		}
		if nf != 4 && nf != 5 {
			return nil, fmt.Errorf("treeio: line %d: want 4 or 5 fields (name parent comm proc [ret]), got %d: %w", lineNo, nf, bwcerr.ErrNotATree)
		}
		name, parent, commS, procS := strings.Clone(fields[0]), fields[1], fields[2], fields[3]
		retS := ""
		if nf == 5 {
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
	return b.Build()
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields stores the first len(fs) fields of line in fs and returns
// how many fields line has, splitting as strings.Fields does. A line
// holding a byte outside ASCII goes through strings.Fields itself, so
// the Unicode spaces U+0085 and U+00A0 separate fields there.
func splitFields(line string, fs *[5]string) int {
	n := 0
	for i := 0; i < len(line); i++ {
		j := i
		for ; j < len(line) && !asciiSpace[line[j]]; j++ {
			if line[j] >= utf8.RuneSelf {
				all := strings.Fields(line)
				copy(fs[:], all)
				return len(all)
			}
		}
		if j > i {
			if n < len(fs) {
				fs[n] = line[i:j]
			}
			n++
		}
		i = j
	}
	return n
}
