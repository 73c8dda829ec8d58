module spb/bench

go 1.22

require spb v0.0.0

replace spb => ../
