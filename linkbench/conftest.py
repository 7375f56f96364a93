import run

run.import_library()   # the checkout's link3d
