package core

// Channel names a side channel.
//
// Deprecated: power is the only side channel, so there is nothing left
// to select; the type remains so existing callers keep compiling.
type Channel string

// ChannelPower is the power side channel.
//
// Deprecated: see Channel.
const ChannelPower Channel = "power"
