package bus

import (
	"strings"
	"testing"
	"testing/quick"

	"gretel/internal/amqp"
)

func msg(exchange, key string) *amqp.Message {
	return &amqp.Message{
		MethodID:   amqp.BasicPublish,
		Exchange:   exchange,
		RoutingKey: key,
		Envelope:   amqp.Envelope{MsgID: "m1", Method: "ping"},
	}
}

func TestMatchTopic(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"compute.compute-1", "compute.compute-1", true},
		{"compute.compute-1", "compute.compute-2", false},
		{"compute.*", "compute.compute-1", true},
		{"compute.*", "compute", false},
		{"compute.*", "compute.a.b", false},
		{"compute.#", "compute", true},
		{"compute.#", "compute.a.b.c", true},
		{"#", "anything.at.all", true},
		{"#", "", true}, // empty key is a single empty word; # matches all
		{"*.info", "agent.info", true},
		{"*.info", "agent.debug", false},
		{"a.#.z", "a.z", true},
		{"a.#.z", "a.b.c.z", true},
		{"a.#.z", "a.b.c", false},
		{"a.*.z", "a.b.z", true},
		{"a.*.z", "a.b.c.z", false},
	}
	for _, c := range cases {
		if got := MatchTopic(c.pattern, c.key); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.pattern, c.key, got, c.want)
		}
	}
}

func TestDefaultExchangeRoutesToQueueByName(t *testing.T) {
	b := New()
	b.DeclareQueue("reply_q1")
	if err := b.Subscribe("reply_q1", Consumer{Node: "n1"}); err != nil {
		t.Fatal(err)
	}
	if ds := b.Route(msg("", "reply_q1")); len(ds) != 1 || ds[0].Queue != "reply_q1" || ds[0].Consumer.Node != "n1" {
		t.Fatalf("deliveries = %+v, want one to n1 on reply_q1", ds)
	}
}

func TestUnroutableCounted(t *testing.T) {
	b := New()
	if ds := b.Route(msg("", "nowhere")); len(ds) != 0 {
		t.Fatalf("unroutable delivered %d times", len(ds))
	}
	if b.Unroutable != 1 || b.Published != 1 {
		t.Fatalf("counters: published=%d unroutable=%d", b.Published, b.Unroutable)
	}
}

func TestTopicBindingAndDeliverRewrite(t *testing.T) {
	b := New()
	b.Bind("nova", "compute.*", "q-compute-1")
	b.Subscribe("q-compute-1", Consumer{Node: "compute-1"})
	ds := b.Route(msg("nova", "compute.compute-1"))
	if len(ds) != 1 || ds[0].Consumer.Node != "compute-1" {
		t.Fatalf("deliveries = %+v, want one to compute-1", ds)
	}
	delivered := ds[0].Message
	if delivered.MethodID != amqp.BasicDeliver {
		t.Fatalf("delivery MethodID = %d, want BasicDeliver", delivered.MethodID)
	}
	if delivered.Envelope.Method != "ping" {
		t.Fatalf("envelope lost: %+v", delivered.Envelope)
	}
}

func TestFanoutToMultipleQueues(t *testing.T) {
	b := New()
	b.Bind("neutron", "agent.#", "q-agent-a")
	b.Bind("neutron", "agent.#", "q-agent-b")
	b.Subscribe("q-agent-a", Consumer{Node: "na"})
	b.Subscribe("q-agent-b", Consumer{Node: "nb"})
	ds := b.Route(msg("neutron", "agent.port_update"))
	if len(ds) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(ds))
	}
	hits := map[string]int{}
	for _, d := range ds {
		hits[d.Consumer.Node]++
	}
	if hits["na"] != 1 || hits["nb"] != 1 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestRoundRobinConsumers(t *testing.T) {
	b := New()
	b.DeclareQueue("work")
	hits := map[string]int{}
	for _, node := range []string{"w1", "w2", "w3"} {
		b.Subscribe("work", Consumer{Node: node})
	}
	for i := 0; i < 9; i++ {
		for _, d := range b.Route(msg("", "work")) {
			hits[d.Consumer.Node]++
		}
	}
	for _, node := range []string{"w1", "w2", "w3"} {
		if hits[node] != 3 {
			t.Fatalf("round robin uneven: %v", hits)
		}
	}
}

func TestSubscribeUndeclared(t *testing.T) {
	b := New()
	if err := b.Subscribe("ghost", Consumer{}); err == nil {
		t.Fatal("subscribe to undeclared queue succeeded")
	}
}

func TestDuplicateBindingIgnored(t *testing.T) {
	b := New()
	b.Bind("nova", "compute.#", "q1")
	b.Bind("nova", "compute.#", "q1")
	b.Subscribe("q1", Consumer{})
	if n := len(b.Route(msg("nova", "compute.x"))); n != 1 {
		t.Fatalf("duplicate binding caused %d deliveries", n)
	}
}

func TestQueueWithNoConsumersDropsButRoutes(t *testing.T) {
	b := New()
	b.Bind("nova", "compute.#", "q1")
	if n := len(b.Route(msg("nova", "compute.x"))); n != 0 {
		t.Fatalf("consumerless queue delivered %d", n)
	}
	// Not counted unroutable: the queue matched.
	if b.Unroutable != 0 {
		t.Fatalf("Unroutable = %d, want 0", b.Unroutable)
	}
}

func TestRouteDeterministicOrder(t *testing.T) {
	b := New()
	b.Bind("e", "k", "zq")
	b.Bind("e", "k", "aq")
	b.Subscribe("zq", Consumer{Node: "z"})
	b.Subscribe("aq", Consumer{Node: "a"})
	ds := b.Route(msg("e", "k"))
	if len(ds) != 2 || ds[0].Queue != "aq" || ds[1].Queue != "zq" {
		t.Fatalf("route order not deterministic: %+v", ds)
	}
}

func TestDeliveryDoesNotAliasPublished(t *testing.T) {
	b := New()
	b.DeclareQueue("q")
	b.Subscribe("q", Consumer{Node: "n"})
	m := msg("", "q")
	ds := b.Route(m)
	if len(ds) != 1 {
		t.Fatal("no route")
	}
	if ds[0].Message == m {
		t.Fatal("delivery aliases the published message")
	}
	if m.MethodID != amqp.BasicPublish {
		t.Fatal("published message mutated")
	}
}

// Property: "#" matches every key; exact patterns match only themselves;
// "*"-per-segment patterns match keys of equal segment count.
func TestQuickMatchTopic(t *testing.T) {
	mkKey := func(raw []uint8) string {
		if len(raw) == 0 {
			return "x"
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		segs := make([]string, len(raw))
		for i, b := range raw {
			segs[i] = string(rune('a' + b%4))
		}
		return strings.Join(segs, ".")
	}
	f := func(rawA, rawB []uint8) bool {
		a, b := mkKey(rawA), mkKey(rawB)
		if !MatchTopic("#", a) {
			return false
		}
		if !MatchTopic(a, a) {
			return false
		}
		if MatchTopic(a, b) && a != b {
			// Exact patterns (no wildcards here) must only match equals.
			return false
		}
		// All-star pattern of the same arity matches.
		nSegs := strings.Count(a, ".") + 1
		stars := strings.TrimSuffix(strings.Repeat("*.", nSegs), ".")
		return MatchTopic(stars, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
