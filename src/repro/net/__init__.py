"""Network substrate both engines share: latency models and the router.

The message-passing network itself is :class:`repro.core.message.Network`.
"""
