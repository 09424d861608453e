// Package rig is the single-server constructor bench/'s layer drivers
// call. A rig is a one-node cluster with the paper boot; nothing outside
// bench/ imports this package.
package rig

import (
	"repro/internal/cluster"
	"repro/internal/server"
)

// Config is the cluster configuration; New sets PaperBoot.
type Config = cluster.Config

// Rig is a one-node cluster with its server at hand.
type Rig struct {
	*cluster.Cluster
	Server *server.Server
}

// New builds the paper's single-server testbed for cfg.
func New(cfg Config) *Rig {
	cfg.PaperBoot = true
	c := cluster.New(cfg)
	return &Rig{Cluster: c, Server: c.Nodes[0].Server}
}
