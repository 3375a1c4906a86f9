// Package bus implements the RabbitMQ message-broker analogue: topic
// exchanges, queues, bindings, and round-robin delivery to consumers.
//
// OpenStack routes all intra-service RPC through a RabbitMQ broker (§2
// "Communication"). The broker here is pure routing logic — it decides
// which queues a published message lands on and which consumer takes it —
// while the cluster layer moves the encoded frames across the simulated
// network so monitoring taps see real bytes on both the publish and
// deliver legs.
package bus

import (
	"fmt"
	"sort"
	"strings"

	"gretel/internal/amqp"
)

// Delivery is the broker's routing decision for one queue: the consumer
// that receives the message, rewritten as a basic.deliver.
type Delivery struct {
	Queue    string
	Consumer Consumer
	Message  *amqp.Message
}

// Consumer identifies a subscribed service endpoint: the deployment node
// it runs on.
type Consumer struct {
	Node string
}

type queue struct {
	consumers []Consumer
	next      int
}

type binding struct {
	exchange string
	pattern  string
	queue    string
}

// Broker is a topic-exchange message broker. It is not safe for concurrent
// use; inside the simulation all access happens on the event loop.
type Broker struct {
	queues   map[string]*queue
	bindings []binding
	// Published counts messages accepted; Unroutable counts messages that
	// matched no queue (RabbitMQ would drop or return these).
	Published  uint64
	Unroutable uint64
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{queues: make(map[string]*queue)}
}

// DeclareQueue creates the queue if it does not exist. Declaring an
// existing queue is a no-op, matching AMQP semantics.
func (b *Broker) DeclareQueue(name string) {
	if _, ok := b.queues[name]; !ok {
		b.queues[name] = &queue{}
	}
}

// Bind routes messages published to exchange whose routing key matches
// pattern into the named queue. The queue is declared implicitly.
// Duplicate bindings are ignored.
func (b *Broker) Bind(exchange, pattern, queueName string) {
	b.DeclareQueue(queueName)
	for _, bd := range b.bindings {
		if bd.exchange == exchange && bd.pattern == pattern && bd.queue == queueName {
			return
		}
	}
	b.bindings = append(b.bindings, binding{exchange, pattern, queueName})
}

// Subscribe registers a consumer on a queue. Multiple consumers on one
// queue receive messages round-robin (work-queue semantics, used by e.g.
// the pool of nova-conductor workers).
func (b *Broker) Subscribe(queueName string, c Consumer) error {
	q, ok := b.queues[queueName]
	if !ok {
		return fmt.Errorf("bus: subscribe to undeclared queue %q", queueName)
	}
	q.consumers = append(q.consumers, c)
	return nil
}

// Route determines the deliveries for a published message without invoking
// consumers. The default exchange ("") routes directly to the queue named
// by the routing key; topic exchanges route through bindings. Queues are
// visited in deterministic (sorted) order. A queue with no consumers
// produces no delivery (the message would sit in the queue; the simulation
// treats it as dropped, which is what a fault injector wants to observe).
func (b *Broker) Route(m *amqp.Message) []Delivery {
	b.Published++
	var queueNames []string
	if m.Exchange == "" {
		if _, ok := b.queues[m.RoutingKey]; ok {
			queueNames = []string{m.RoutingKey}
		}
	} else {
		seen := map[string]bool{}
		for _, bd := range b.bindings {
			if bd.exchange == m.Exchange && MatchTopic(bd.pattern, m.RoutingKey) && !seen[bd.queue] {
				seen[bd.queue] = true
				queueNames = append(queueNames, bd.queue)
			}
		}
		sort.Strings(queueNames)
	}
	if len(queueNames) == 0 {
		b.Unroutable++
		return nil
	}
	var out []Delivery
	for _, qn := range queueNames {
		q := b.queues[qn]
		if len(q.consumers) == 0 {
			continue
		}
		c := q.consumers[q.next%len(q.consumers)]
		q.next++
		dm := *m
		dm.MethodID = amqp.BasicDeliver
		out = append(out, Delivery{Queue: qn, Consumer: c, Message: &dm})
	}
	return out
}

// MatchTopic implements AMQP topic matching: patterns and keys are
// dot-separated words; "*" matches exactly one word, "#" matches zero or
// more words.
func MatchTopic(pattern, key string) bool {
	return matchWords(strings.Split(pattern, "."), strings.Split(key, "."))
}

func matchWords(pat, key []string) bool {
	for len(pat) > 0 {
		switch pat[0] {
		case "#":
			if len(pat) == 1 {
				return true
			}
			for i := 0; i <= len(key); i++ {
				if matchWords(pat[1:], key[i:]) {
					return true
				}
			}
			return false
		case "*":
			if len(key) == 0 {
				return false
			}
		default:
			if len(key) == 0 || key[0] != pat[0] {
				return false
			}
		}
		pat, key = pat[1:], key[1:]
	}
	return len(key) == 0
}
