package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"bwc/internal/rat"
)

// ParseText reads a platform graph from the line-oriented format:
//
//	node <name> <proc>     # computing node, proc is a positive rational
//	switch <name>          # node with no computing power
//	link <a> <b> <comm>    # bidirectional link, comm is a positive rational
//	master <name>          # designates the task source (required)
//
// '#' starts a comment; blank lines are ignored.
func ParseText(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	lineNo := 0
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
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: node <name> <proc>", lineNo)
			}
			proc, err := rat.Parse(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			b.Node(fields[1], proc)
		case "switch":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: switch <name>", lineNo)
			}
			b.Switch(fields[1])
		case "link":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: link <a> <b> <comm>", lineNo)
			}
			comm, err := rat.Parse(fields[3])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			b.Link(fields[1], fields[2], comm)
		case "master":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: master <name>", lineNo)
			}
			b.Master(fields[1])
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}
