package engine

// CallbackSink names the per-verdict adapter behind Config.OnVerdict for
// the tests, which also drive it as a Sink of its own.
type CallbackSink = callbackSink
