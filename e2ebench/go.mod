module memdos/e2ebench

go 1.22

require memdos v0.0.0

replace memdos => ../
