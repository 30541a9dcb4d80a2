package wsn

import (
	"sync"
	"testing"
)

func TestEscrowDeferCommitPublishes(t *testing.T) {
	n := New(linePositions(4, 1), 1.5)
	n.Charge(0, 5)
	n.BeginEscrow(1)
	n.Charge(1, 7)
	n.Charge(1, 3)
	if got := n.MessageCount(); got != 5 {
		t.Fatalf("escrowed charges visible in MessageCount: got %d, want 5", got)
	}
	if got := n.NodeMessages(1); got != 0 {
		t.Fatalf("escrowed charges visible in NodeMessages: got %d, want 0", got)
	}
	if got := n.EscrowDepth(); got != 10 {
		t.Fatalf("EscrowDepth = %d, want 10", got)
	}
	if got := n.EndEscrow(1); got != 10 {
		t.Fatalf("EndEscrow = %d, want 10", got)
	}
	// Closed but uncommitted: still invisible, still held.
	if got := n.MessageCount(); got != 5 {
		t.Fatalf("uncommitted escrow visible: got %d, want 5", got)
	}
	if got := n.CommitEscrow(1); got != 10 {
		t.Fatalf("CommitEscrow = %d, want 10", got)
	}
	if got := n.MessageCount(); got != 15 {
		t.Fatalf("after commit MessageCount = %d, want 15", got)
	}
	if got := n.NodeMessages(1); got != 10 {
		t.Fatalf("after commit NodeMessages(1) = %d, want 10", got)
	}
	if got := n.EscrowDepth(); got != 0 {
		t.Fatalf("after commit EscrowDepth = %d, want 0", got)
	}
	// Charges after EndEscrow go straight to the public counters again.
	n.Charge(1, 2)
	if got := n.NodeMessages(1); got != 12 {
		t.Fatalf("post-escrow charge lost: NodeMessages(1) = %d, want 12", got)
	}
}

func TestEscrowVoidDiscardsWithoutRefund(t *testing.T) {
	n := New(linePositions(3, 1), 1.5)
	n.BeginEscrow(2)
	n.Charge(2, 9)
	n.EndEscrow(2)
	if got := n.VoidEscrow(2); got != 9 {
		t.Fatalf("VoidEscrow = %d, want 9", got)
	}
	if got, depth := n.MessageCount(), n.EscrowDepth(); got != 0 || depth != 0 {
		t.Fatalf("after void: MessageCount=%d EscrowDepth=%d, want 0,0", got, depth)
	}
	// A fresh escrow on the same node starts clean.
	n.BeginEscrow(2)
	n.Charge(2, 4)
	n.EndEscrow(2)
	if got := n.CommitEscrow(2); got != 4 {
		t.Fatalf("second escrow commit = %d, want 4", got)
	}
	if got := n.MessageCount(); got != 4 {
		t.Fatalf("MessageCount = %d, want 4", got)
	}
}

func TestBeginEscrowPanicsOnUnresolvedBalance(t *testing.T) {
	n := New(linePositions(2, 1), 1.5)
	n.BeginEscrow(0)
	n.Charge(0, 1)
	n.EndEscrow(0)
	defer func() {
		if recover() == nil {
			t.Error("BeginEscrow over an unresolved balance must panic")
		}
	}()
	n.BeginEscrow(0)
}

func TestEscrowSurvivesAddNode(t *testing.T) {
	n := New(linePositions(2, 1), 1.5)
	id := n.AddNode(linePositions(3, 1)[2])
	n.BeginEscrow(id)
	n.Charge(id, 6)
	n.EndEscrow(id)
	if got := n.CommitEscrow(id); got != 6 {
		t.Fatalf("escrow on added node commit = %d, want 6", got)
	}
	if got := n.NodeMessages(id); got != 6 {
		t.Fatalf("NodeMessages(%d) = %d, want 6", id, got)
	}
}

// TestStatsSelfConsistentUnderConcurrentCharges is the regression test for
// the torn Stats snapshot: with chargers running concurrently, every
// snapshot must satisfy sum(ByNode) == Messages and successive snapshots
// must be monotone. Run under -race this also exercises the atomics.
func TestStatsSelfConsistentUnderConcurrentCharges(t *testing.T) {
	n := New(linePositions(8, 1), 1.5)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.Charge(id, 3)
					n.Charge(id+4, 1)
				}
			}
		}(w)
	}
	prev := int64(-1)
	for i := 0; i < 5000; i++ {
		s := n.Stats()
		var sum int64
		for _, v := range s.ByNode {
			sum += v
		}
		if sum != s.Messages {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: sum(ByNode)=%d, Messages=%d", sum, s.Messages)
		}
		if s.Messages < prev {
			close(stop)
			wg.Wait()
			t.Fatalf("non-monotone snapshot: %d after %d", s.Messages, prev)
		}
		prev = s.Messages
	}
	close(stop)
	wg.Wait()
	// At quiescence the cheap total agrees with the snapshot.
	if got, want := n.MessageCount(), n.Stats().Messages; got != want {
		t.Fatalf("MessageCount=%d != Stats().Messages=%d at quiescence", got, want)
	}
}
