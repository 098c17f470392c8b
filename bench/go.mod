module xomatiq/bench

go 1.22

require xomatiq v0.0.0

replace xomatiq => ../
