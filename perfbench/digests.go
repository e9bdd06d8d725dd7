package main

// pinnedDigests holds the sha256 of each workload's output on the
// development seed: the lvsim table, the lvchaos report, and for serve
// the sorted (spec hash, body hash) set of one run's responses.
var pinnedDigests = map[string]string{
	"grid":      "48824c5968fbd98d46a659142eed80ab5ee01d85ff101b9fb6420f67587beb20",
	"hierchaos": "4be508df8d538921bf89180a4fcde6fc6476deb52aa4de8e74a5d22fef949366",
	"serve":     "003830997d53cd0d334a99ed10606a64efc8d237f281e338dbcaf87dd0445f7c",
}

// pinnedServeSeconds is the schedule length the serve digest was pinned
// at: a longer schedule sends more of the population.
const pinnedServeSeconds = 40
