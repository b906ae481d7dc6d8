package main

import "joinopt/internal/storage"

// timedEngine wraps a data node's storage engine, installed through
// live.Server.SetEngine: in a traced run it records a span around every
// Get, Put and Flush.
type timedEngine struct {
	storage.Engine
	probe *probes
}

func (e *timedEngine) Table(name string) (storage.Table, error) {
	t, err := e.Engine.Table(name)
	if err != nil {
		return nil, err
	}
	return &timedTable{Table: t, e: e}, nil
}

func (e *timedEngine) Flush() error {
	tr := e.probe.tr.Load()
	if tr == nil {
		return e.Engine.Flush()
	}
	start := tr.now()
	err := e.Engine.Flush()
	tr.record(lStoreFlush, -1, 0, start, tr.now())
	return err
}

type timedTable struct {
	storage.Table
	e *timedEngine
}

func (t *timedTable) Get(key string) ([]byte, int64, bool) {
	tr := t.e.probe.tr.Load()
	if tr == nil {
		return t.Table.Get(key)
	}
	start := tr.now()
	v, ver, ok := t.Table.Get(key)
	tr.record(lStoreGet, -1, fnvKey(key), start, tr.now())
	return v, ver, ok
}

func (t *timedTable) Put(key string, value []byte) (int64, error) {
	tr := t.e.probe.tr.Load()
	if tr == nil {
		return t.Table.Put(key, value)
	}
	start := tr.now()
	ver, err := t.Table.Put(key, value)
	tr.record(lStorePut, -1, fnvKey(key), start, tr.now())
	return ver, err
}
