package machine

// Builds reports the process-wide artefact build counters: decodes by
// Load, op-chain lowerings and fused block programs.
func Builds() (decodes, ops, blocks int64) {
	return builds.decodes.Load(), builds.ops.Load(), builds.blocks.Load()
}
