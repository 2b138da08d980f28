"""Settings shared by every test module."""

try:
    import resource
except ImportError:  # no resource limits on this platform
    resource = None

# A runaway draw fails with MemoryError and a traceback instead of taking
# the machine: the session's address space is capped at 4 GB, or at the
# lower limit the shell already set, which is never raised.
_CAP = 4 * 1024**3
if resource is not None:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if _soft == resource.RLIM_INFINITY or _soft > _CAP:
        resource.setrlimit(resource.RLIMIT_AS, (_CAP, _hard))
