package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanName names a layer boundary the benchmark times from outside.
type spanName uint8

const (
	spHTTPRequest   spanName = iota // client: send to last byte verified
	spHTTPRoundtrip                 // client: send to last byte read
	spVerify                        // client: byte comparison with the source text
	spOp                            // in process: one replayed operation
	spBlockContext                  // romserver.Server.BlockContext
	spReadAt                        // romserver.Server.ReadAtContext
	spRangeView                     // romserver.Server.RangeView
	spWriteTo                       // romserver.View.WriteTo
	spTrainFrom                     // romserver.Server.TrainFrom
	spRecompress                    // romserver.Server.Recompress
	spAppendBlock                   // codecomp.AppendBlock on a block the call decoded
	spAppendPrefix                  // codecomp.AppendBlockPrefix on a partial tail
	spCRC                           // CRC-32C of a decoded block
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"http.request", "http.roundtrip", "oracle.verify", "inproc.op",
	"romserver.BlockContext", "romserver.ReadAtContext", "romserver.RangeView",
	"romserver.View.WriteTo", "romserver.TrainFrom", "romserver.Recompress",
	"codec.AppendBlock", "codec.AppendBlockPrefix", "integrity.crc32c",
}

// span is one timed call. Spans of one operation share req; parent is
// the id of the enclosing span within that operation (-1 for the root).
// Times are ns from the loop's start. tag and n carry the block's codec
// format index and byte count on codec spans.
type span struct {
	req        int64
	id, parent int32
	name       spanName
	tag        uint8
	n          int32
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// keepOps is how many operations' spans each client keeps for the span
// file; self times are summed over every operation.
const keepOps = 10000

// spanLog records one client's spans. It sums each span name's self
// time (its duration minus its children's) over every operation, and
// keeps the spans of the first keepOps operations for writing out. The
// codec and CRC spans under a romserver call re-run, on the same blocks,
// the decode and check the server did inside that call, so they are
// charged against it: the call's self time is what the serving layer
// adds around the codec.
type spanLog struct {
	self, count [numSpanNames]int64
	kept        []span
	ops         int
}

// add books one operation's spans.
func (l *spanLog) add(spans []span) {
	for _, s := range spans {
		d := s.dur()
		for _, c := range spans {
			if c.parent == s.id {
				d -= c.dur()
			}
		}
		l.self[s.name] += d
		l.count[s.name]++
	}
	if l.ops < keepOps {
		l.kept = append(l.kept, spans...)
	}
	l.ops++
}

func (l *spanLog) merge(o *spanLog) {
	for i := range l.self {
		l.self[i] += o.self[i]
		l.count[i] += o.count[i]
	}
	l.kept = append(l.kept, o.kept...)
	l.ops += o.ops
}

// sum is the total self time of the named spans, in ns.
func (l *spanLog) sum(names ...spanName) int64 {
	t := int64(0)
	for _, n := range names {
		t += l.self[n]
	}
	return t
}

// meanUs is the mean self time of one span name, in µs (0 if none).
func (l *spanLog) meanUs(n spanName) float64 {
	if l.count[n] == 0 {
		return 0
	}
	return float64(l.self[n]) / float64(l.count[n]) / 1e3
}

// writeSpans writes spans as tab-separated lines: req, id, parent,
// name, start ns, end ns, format, bytes.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tid\tparent\tname\tstart_ns\tend_ns\tformat\tbytes")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%s\t%d\n",
			s.req, s.id, s.parent, spanNames[s.name], s.start, s.end, formats[s.tag], s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
