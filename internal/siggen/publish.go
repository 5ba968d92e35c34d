package siggen

import (
	"context"

	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Publisher is where accepted signature sets go, each under its set name
// ("" is the global set, a tenant key names that tenant's set). The
// service stamps each set with a version strictly greater than the last
// one it saw under that name, so a conforming publisher (sigserver's
// strict-increase guard) rejects stale or looping writers instead of
// ping-ponging the fleet between generations.
type Publisher interface {
	// CurrentVersion returns name's live published version, used to seed
	// and re-sync the service's version counter for that name.
	CurrentVersion(ctx context.Context, name string) (int64, error)
	// Publish submits the set (Version pre-stamped by the service) under
	// name and returns the version the server accepted it as.
	Publish(ctx context.Context, name string, set *signature.Set) (int64, error)
}

// serverPublisher publishes into a sigserver.Server in the same
// process, as this package's tests run the learner.
type serverPublisher struct{ Server *sigserver.Server }

// CurrentVersion implements Publisher.
func (p serverPublisher) CurrentVersion(_ context.Context, name string) (int64, error) {
	_, v, _ := p.Server.CurrentNamed(name)
	return v, nil
}

// Publish implements Publisher.
func (p serverPublisher) Publish(_ context.Context, name string, set *signature.Set) (int64, error) {
	return p.Server.Publish(name, set)
}

// httpPublisher publishes over sigserver's HTTP API — the cmd/siggend
// deployment against a remote distribution server.
type httpPublisher struct{ client *sigserver.Client }

// NewHTTPPublisherFrom wraps a caller-built sigserver.Client — the hook
// daemons use to publish through a client that already carries a fault
// injector, circuit breaker, or custom transport.
func NewHTTPPublisherFrom(c *sigserver.Client) Publisher {
	return httpPublisher{client: c}
}

// CurrentVersion implements Publisher.
func (p httpPublisher) CurrentVersion(ctx context.Context, name string) (int64, error) {
	return p.client.Version(ctx, name)
}

// Publish implements Publisher.
func (p httpPublisher) Publish(ctx context.Context, name string, set *signature.Set) (int64, error) {
	return p.client.Publish(ctx, name, set)
}
