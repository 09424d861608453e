package server

import "repro/internal/netsim"

// KeepDupRepliesUnheld plants a dup entry without its Ref: until restore
// is called, done keeps each reply head without taking the entry's own
// reference to it.
func KeepDupRepliesUnheld() (restore func()) {
	refReply = func(h netsim.Head) netsim.Head { return h }
	return func() { refReply = netsim.Head.Ref }
}
