package sim

import (
	"container/heap"
	"testing"
)

// refEvent is one event of refQueue, the reference the engine's heap is
// checked against: container/heap over the same (At, seq) order.
type refEvent struct {
	at    Time
	seq   int
	id    int
	index int // -1 once popped or cancelled
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	ev.index = -1
	*q = old[:len(old)-1]
	return ev
}

// engineOrderCorpus is the fixed seed corpus of FuzzEngineOrder: hand-made
// edge cases, then longer op streams from a fixed linear congruential
// sequence.
func engineOrderCorpus() [][]byte {
	corpus := [][]byte{
		nil,
		{0xc0},                   // step an empty queue
		{0x00, 0x00, 0x00, 0x00}, // four events at one instant
		{0x00, 0x80, 0xc0, 0x80}, // cancel the only event, step, cancel again
		{0x0f, 0x01, 0x0f, 0x01, 0x00, 0xc0, 0x00, 0xc0, 0x81, 0xc0, 0xc0},
	}
	for _, c := range []struct {
		seed uint32
		n    int
	}{{1, 64}, {2, 512}, {3, 4096}, {4, 4096}} {
		ops, x := make([]byte, c.n), c.seed
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		corpus = append(corpus, ops)
	}
	return corpus
}

// FuzzEngineOrder runs one op stream on an Engine and on refQueue and
// requires the same firing order, clock and pending count throughout. Each
// op byte schedules (top bits 00 or 01) an event at now plus its low four
// bits, so instants tie often; cancels (10) the scheduled event its low six
// bits pick, which may have fired or been cancelled already; or steps (11).
// Both queues are drained at the end.
func FuzzEngineOrder(f *testing.F) {
	for _, ops := range engineOrderCorpus() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		var ref refQueue
		var evs []*Event
		var refs []*refEvent
		fired := -1
		step := func(i int) {
			fired = -1
			ok := e.Step()
			if ok != (ref.Len() > 0) {
				t.Fatalf("op %d: Step reported %v with %d reference events pending", i, ok, ref.Len())
			}
			if !ok {
				return
			}
			want := heap.Pop(&ref).(*refEvent)
			if fired != want.id || e.Now() != want.at {
				t.Fatalf("op %d: fired event %d at %v, the reference fires %d at %v", i, fired, e.Now(), want.id, want.at)
			}
		}
		for i, op := range ops {
			switch op >> 6 {
			case 0, 1:
				id, at := len(evs), e.Now().Add(Duration(op&0x0f))
				evs = append(evs, e.ScheduleAt(at, "fuzz", func(*Engine) { fired = id }))
				r := &refEvent{at: at, seq: id, id: id}
				heap.Push(&ref, r)
				refs = append(refs, r)
			case 2:
				if len(evs) == 0 {
					continue
				}
				k := int(op&0x3f) % len(evs)
				e.Cancel(evs[k])
				if refs[k].index >= 0 {
					heap.Remove(&ref, refs[k].index)
					refs[k].index = -2 // cancelled
				}
				if got, want := evs[k].Cancelled(), refs[k].index == -2; got != want {
					t.Fatalf("op %d: event %d Cancelled() = %v, want %v", i, k, got, want)
				}
			case 3:
				step(i)
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("op %d: %d events pending, the reference holds %d", i, e.Pending(), ref.Len())
			}
		}
		for i := len(ops); ref.Len() > 0; i++ {
			step(i)
		}
		if e.Step() {
			t.Fatalf("the engine fired event %d after the reference drained", fired)
		}
	})
}
