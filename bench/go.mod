module quark/bench

go 1.24

require quark v0.0.0

replace quark => ../
