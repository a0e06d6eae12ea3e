module nodeselect/bench

go 1.22

require nodeselect v0.0.0

replace nodeselect => ../
