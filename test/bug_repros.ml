(* Hand-written reproducers for every bug in the catalog. Besides
   serving the per-bug tests, this table proves each injected
   vulnerability is actually reachable through the public syscall
   surface (the fuzzing benches rely on that). *)

module K = Healer_kernel
open Helpers
open Healer_kernel.Version

type repro = {
  key : string;
  version : K.Version.t;
  features : string list;
  fault_call : int option;
  build : unit -> Healer_executor.Prog.t;
}

let sockaddr = group [ i 2L; i 80L; i 1L ]

let kvm_prefix =
  [
    call "openat$kvm" [ i (-100L); s "/dev/kvm"; i 0L ];
    call "ioctl$KVM_CREATE_VM" [ r 0; i 0xae01L ];
  ]

(* Shadows Helpers.r below this point; repro bodies use [Helpers.r]. *)
let r ?(features = []) ?fault_call ~v key build =
  { key; version = v; features; fault_call; build }

let all : repro list =
  [
    (* ---- previously-known shared bugs ---- *)
    r ~v:V5_11 "memfd_create_warn" (fun () ->
        prog [ call "memfd_create" [ ptr (s (String.make 260 'a')); i 0L ] ]);
    r ~v:V5_11 "vfs_read_oob" (fun () ->
        prog
          [
            call "open" [ s "/etc/passwd"; i 0L; i 0x1ffL ];
            call "read" [ Helpers.r 0; buf 8192; iv 8192 ];
          ]);
    r ~v:V5_11 "tcp_disconnect" (fun () ->
        prog
          [
            call "socket$tcp" [ i 2L; i 1L; i 6L ];
            call "connect" [ Helpers.r 0; sockaddr ];
            call "connect$unspec" [ Helpers.r 0; i 0L ];
          ]);
    r ~v:V5_11 "raw_sendmsg_uninit" (fun () ->
        prog
          [
            call "socket$raw" [ i 2L; i 3L; i 255L ];
            call "sendto" [ Helpers.r 0; buf 4; iv 4; i 0L; sockaddr ];
          ]);
    r ~v:V5_11 "tty_init_dev_leak" (fun () ->
        prog
          [
            call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
            call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
          ]);
    r ~v:V5_11 "fb_set_var_div" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$FBIOPUT_VSCREENINFO"
              [ Helpers.r 0; i 0x4601L; group [ i 0L; i 600L; i 32L; i 39721L ] ];
          ]);
    r ~v:V5_11 "kvm_arch_vcpu_ioctl_warn" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_CREATE_VCPU" [ Helpers.r 1; i 0xae41L; i 0L ];
              call "ioctl$KVM_SET_LAPIC" [ Helpers.r 2; i 0x4400ae8fL; ptr (buf 8) ];
            ]));
    r ~v:V5_11 "io_ring_exit_work" (fun () ->
        prog
          [
            call "io_uring_setup" [ iv 64; group [ iv 64; iv 64; i 0L ] ];
            call "io_uring_enter" [ Helpers.r 0; iv 20; i 0L; i 0L ];
            call "dup" [ Helpers.r 0 ];
            call "close" [ Helpers.r 0 ];
            call "io_uring_enter" [ Helpers.r 2; iv 1; i 0L; i 0L ];
          ]);
    r ~v:V5_11 "disk_part_iter_uaf" (fun () ->
        prog
          [
            call "openat$loop" [ i (-100L); s "/dev/loop0"; i 0L ];
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "ioctl$LOOP_SET_FD" [ Helpers.r 0; i 0x4c00L; Helpers.r 1 ];
            call "ioctl$BLKPG_ADD" [ Helpers.r 0; i 0x1269L; group [ i 1L; i 0L; i 0L ] ];
            call "ioctl$BLKPG_ADD" [ Helpers.r 0; i 0x1269L; group [ i 2L; i 0L; i 0L ] ];
            call "ioctl$BLKPG_DEL" [ Helpers.r 0; i 0x126aL; group [ i 1L; i 0L; i 0L ] ];
            call "ioctl$BLKRRPART" [ Helpers.r 0; i 0x125fL ];
          ]);
    r ~v:V5_11 "ext4_writepages_bug" (fun () ->
        prog
          [
            call "open$ext4" [ s "/mnt/ext4/f0"; i 0x40L; i 0x1ffL ];
            call "ioctl$EXT4_IOC_SETFLAGS" [ Helpers.r 0; i 0x40086602L; group [ i 0x4000L ] ];
            call "write" [ Helpers.r 0; buf 9000; iv 9000 ];
          ]);
    r ~v:V5_11 "unix_release_refcount" (fun () ->
        prog
          [
            call "socket$unix" [ i 1L; i 1L; i 0L ];
            call "bind" [ Helpers.r 0; sockaddr ];
            call "connect" [ Helpers.r 0; sockaddr ];
            call "shutdown" [ Helpers.r 0; i 2L ];
          ]);
    r ~v:V5_11 "ucma_create_id_leak" (fun () ->
        prog
          [
            call "openat$rdma_cm" [ i (-100L); s "/dev/infiniband/rdma_cm"; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
          ]);
    r ~v:V5_11 "v4l2_queryctrl_oob" (fun () ->
        prog
          [
            call "openat$vivid" [ i (-100L); s "/dev/video0"; i 0L ];
            call "ioctl$VIDIOC_S_FMT" [ Helpers.r 0; i 0xc0d05605L; group [ iv 640; iv 480; i 0L ] ];
            call "ioctl$VIDIOC_STREAMON" [ Helpers.r 0; i 0x40045612L ];
            call "ioctl$VIDIOC_QUERYCTRL" [ Helpers.r 0; i 0xc0445624L; i 0x20000L ];
          ]);
    r ~v:V5_11 "llcp_sock_bind_uninit" (fun () ->
        prog
          [
            call "socket$llcp" [ i 39L; i 1L; i 1L ];
            call "bind$llcp" [ Helpers.r 0; group [ i 0L; i 2L; buf 2 ] ];
          ]);
    r ~v:V5_11 "do_umount_null" (fun () ->
        prog
          [
            call "mount$ext4" [ s "/dev/loop0"; s "/mnt/a"; s "ext4"; i 0L; ptr (i 0L) ];
            call "umount" [ s "/mnt/a" ];
            call "umount" [ s "/mnt/a" ];
          ]);
    (* The two deliberately-unguarded fixture races (see the known-race
       catalog in Effect): a write within the 2-tick dirty window, then
       the lock-free read that trips KCSAN. *)
    r ~v:V5_11 "packet_seq_show" (fun () ->
        prog
          [
            call "socket$packet" [ i 17L; i 3L; i 768L ];
            call "sendto$packet" [ Helpers.r 0; buf 64; iv 64; i 0L; ptr (s "lo") ];
            call "socket$packet" [ i 17L; i 3L; i 768L ];
          ]);
    r ~v:V5_11 "legitimize_mnt" (fun () ->
        prog
          [
            call "umount" [ s "/mnt/ext4" ];
            call "open" [ s "/mnt/ext4"; i 0L; i 0L ];
          ]);
    r ~v:V5_11 "dev_ioctl_warn" (fun () ->
        prog
          [
            call "socket$packet" [ i 17L; i 3L; i 768L ];
            call "ioctl$ifup" [ Helpers.r 0; i 0x8914L; ptr (s "et\x01h") ];
          ]);
    r ~v:V5_11 "search_memslots" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_CREATE_VCPU" [ Helpers.r 1; i 0xae41L; i 0L ];
              call "ioctl$KVM_SET_USER_MEMORY_REGION"
                [ Helpers.r 1; i 0x4020ae46L;
                  group [ i 0L; i 0L; i 0x100000L; i 0x10000L; vma ] ];
              call "ioctl$KVM_SET_USER_MEMORY_REGION"
                [ Helpers.r 1; i 0x4020ae46L;
                  group [ i 1L; i 0L; i 0x900000L; i 0x10000L; vma ] ];
              call "ioctl$KVM_RUN" [ Helpers.r 2; i 0xae80L ];
            ]));
    (* ---- USB (executor feature gated) ---- *)
    r ~v:V5_11 ~features:[ "usb" ] "usb_parse_configuration_oob" (fun () ->
        let desc = Bytes.make 24 '\x00' in
        Bytes.set desc 19 '\x50';
        prog [ call "syz_usb_connect" [ Value.Buf (Blob.of_bytes desc) ] ]);
    r ~v:V5_11 ~features:[ "usb" ] "hub_activate_uaf" (fun () ->
        prog
          [
            call "syz_usb_connect" [ buf 18 ];
            call "syz_usb_disconnect" [ Helpers.r 0 ];
            call "syz_usb_control_io" [ Helpers.r 0; group [ i 0L; i 0L; i 0L; i 0L ] ];
          ]);
    r ~v:V5_11 ~features:[ "usb" ] "gadget_setup_null" (fun () ->
        prog
          [
            call "syz_usb_connect" [ buf 18 ];
            call "syz_usb_control_io" [ Helpers.r 0; group [ i 0x21L; i 0L; i 0L; i 0L ] ];
          ]);
    (* ---- Table 4 ---- *)
    r ~v:V5_11 "console_unlock" (fun () ->
        let ptmx = call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ] in
        let writes = List.init 13 (fun _ -> call "write" [ Helpers.r 0; buf 8; iv 8 ]) in
        prog
          ((ptmx :: writes)
          @ [
              call "ioctl$VT_ACTIVATE" [ Helpers.r 0; i 0x5606L; i 2L ];
              call "syslog" [ i 5L; buf 0; iv 0 ];
            ]));
    r ~v:V5_11 "put_device" (fun () ->
        prog
          [
            call "openat$nbd" [ i (-100L); s "/dev/nbd0"; i 0L ];
            call "socket$tcp" [ i 2L; i 1L; i 6L ];
            call "ioctl$NBD_SET_SOCK" [ Helpers.r 0; i 0xab00L; Helpers.r 1 ];
            call "ioctl$NBD_DISCONNECT" [ Helpers.r 0; i 0xab08L ];
            call "ioctl$NBD_CLEAR_SOCK" [ Helpers.r 0; i 0xab04L ];
            call "ioctl$NBD_DISCONNECT" [ Helpers.r 0; i 0xab08L ];
            call "ioctl$NBD_CLEAR_SOCK" [ Helpers.r 0; i 0xab04L ];
          ]);
    r ~v:V5_11 "l2cap_chan_put" (fun () ->
        prog
          [
            call "socket$l2cap" [ i 31L; i 5L; i 0L ];
            call "bind$l2cap" [ Helpers.r 0; sockaddr ];
            call "connect$l2cap" [ Helpers.r 0; sockaddr ];
            call "setsockopt$l2cap_mode" [ Helpers.r 0; i 6L; i 1L; group [ i 3L ] ];
            call "shutdown$l2cap" [ Helpers.r 0; i 2L ];
          ]);
    r ~v:V5_11 "nbd_disconnect_and_put" (fun () ->
        prog
          [
            call "openat$nbd" [ i (-100L); s "/dev/nbd0"; i 0L ];
            call "socket$tcp" [ i 2L; i 1L; i 6L ];
            call "ioctl$NBD_SET_SOCK" [ Helpers.r 0; i 0xab00L; Helpers.r 1 ];
            call "ioctl$NBD_DO_IT" [ Helpers.r 0; i 0xab03L ];
            call "ioctl$NBD_DISCONNECT" [ Helpers.r 0; i 0xab08L ];
            call "ioctl$NBD_DISCONNECT" [ Helpers.r 0; i 0xab08L ];
          ]);
    r ~v:V5_11 "ioremap_page_range" (fun () ->
        prog
          [
            call "mknod$chr" [ s "/dev/c0"; i 0x2000L; i 0L ];
            call "open$chr" [ s "/dev/c0"; i 0L ];
            call "write" [ Helpers.r 1; buf 16; iv 16 ];
            call "mmap" [ vma; iv 4096; i 4L; i 2L; Helpers.r 1; i 0L ];
          ]);
    r ~v:V5_11 "kvm_hv_irq_routing_update" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_CREATE_IRQCHIP" [ Helpers.r 1; i 0xae60L ];
              call "ioctl$KVM_SET_GSI_ROUTING"
                [ Helpers.r 1; i 0x4008ae6aL; group [ i 0L; i 0L; Value.Group [] ] ];
              call "ioctl$KVM_IRQ_LINE" [ Helpers.r 1; i 0x4008ae61L; group [ i 3L; i 1L ] ];
            ]));
    r ~v:V5_11 "ieee802154_llsec_parse_key_id" (fun () ->
        prog
          [
            call "socket$ieee802154" [ i 36L; i 2L; i 0L ];
            call "ioctl$154_SET_KEY" [ Helpers.r 0; i 0x8b01L; group [ i 2L; i 0L; buf 16 ] ];
          ]);
    r ~v:V5_4 "bit_putcs" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$KDFONTOP_SET"
              [ Helpers.r 0; i 0x4b72L; group [ i 0L; i 40L; i 8L; buf 256 ] ];
            call "ioctl$FBIOPUT_VSCREENINFO"
              [ Helpers.r 0; i 0x4601L; group [ i 800L; i 600L; i 32L; i 39721L ] ];
          ]);
    r ~v:V5_4 "tpk_write" (fun () ->
        prog
          [
            call "openat$ttyprintk" [ i (-100L); s "/dev/ttyprintk"; i 0L ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 2L) ];
            call "write" [ Helpers.r 0; buf 600; iv 600 ];
          ]);
    r ~v:V5_4 "nl802154_del_llsec_key" (fun () ->
        prog
          [
            call "socket$ieee802154" [ i 36L; i 2L; i 0L ];
            call "ioctl$154_SET_KEY" [ Helpers.r 0; i 0x8b01L; group [ i 0L; i 5L; buf 16 ] ];
            call "ioctl$154_DEL_KEY" [ Helpers.r 0; i 0x8b02L; group [ i 0L; i 9L; buf 0 ] ];
          ]);
    r ~v:V5_4 "llcp_sock_getname" (fun () ->
        prog
          [
            call "socket$llcp" [ i 39L; i 1L; i 1L ];
            call "connect$llcp" [ Helpers.r 0; group [ i 0L; i 8L; buf 8 ] ];
            call "getsockname$llcp" [ Helpers.r 0; group [ i 0L; i 0L; buf 0 ] ];
          ]);
    r ~v:V4_19 "vivid_stop_generating_vid_cap" (fun () ->
        prog
          [
            call "openat$vivid" [ i (-100L); s "/dev/video0"; i 0L ];
            call "ioctl$VIDIOC_S_FMT" [ Helpers.r 0; i 0xc0d05605L; group [ iv 640; iv 480; i 0L ] ];
            call "ioctl$VIDIOC_REQBUFS" [ Helpers.r 0; i 0xc0145608L; i 0L ];
            call "ioctl$VIDIOC_STREAMON" [ Helpers.r 0; i 0x40045612L ];
            call "ioctl$VIDIOC_S_CTRL" [ Helpers.r 0; i 0xc008561cL; ptr (i 1L) ];
            call "ioctl$VIDIOC_S_FMT" [ Helpers.r 0; i 0xc0d05605L; group [ iv 320; iv 240; i 0L ] ];
            call "ioctl$VIDIOC_STREAMOFF" [ Helpers.r 0; i 0x40045613L ];
          ]);
    r ~v:V4_19 "bitfill_aligned" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$FBIOPAN_DISPLAY" [ Helpers.r 0; i 0x4606L; group [ i 0L; i 0L; i 0L; i 0L ] ];
            call "ioctl$FBIOPUT_VSCREENINFO"
              [ Helpers.r 0; i 0x4601L; group [ i 800L; i 600L; i 1L; i 39721L ] ];
          ]);
    r ~v:V4_19 "fbcon_get_font" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$KDFONTOP_SET"
              [ Helpers.r 0; i 0x4b72L; group [ i 0L; i 40L; i 8L; buf 256 ] ];
            call "ioctl$KDFONTOP_GET" [ Helpers.r 0; i 0x4b72L; group [ i 1L; i 0L; i 0L; buf 0 ] ];
          ]);
    r ~v:V4_19 "vcs_write" (fun () ->
        prog
          [
            call "openat$vcs" [ i (-100L); s "/dev/vcs"; i 0L ];
            call "lseek" [ Helpers.r 0; iv 3000; i 0L ];
            call "write" [ Helpers.r 0; buf 16; iv 16 ];
          ]);
    (* ---- Table 5 ---- *)
    r ~v:V5_11 "ext4_mark_iloc_dirty" (fun () ->
        prog
          [
            call "open$ext4" [ s "/mnt/ext4/f0"; i 0x40L; i 0x1ffL ];
            call "write" [ Helpers.r 0; buf 100; iv 100 ];
            call "fsync$ext4" [ Helpers.r 0 ];
            call "fchmod$ext4" [ Helpers.r 0; iv 420 ];
          ]);
    r ~v:V5_11 "jbd2_journal_file_buffer" (fun () ->
        prog
          [
            call "open$ext4" [ s "/mnt/ext4/f0"; i 0x40L; i 0x1ffL ];
            call "ioctl$EXT4_IOC_SETFLAGS" [ Helpers.r 0; i 0x40086602L; group [ i 0x4000L ] ];
            call "fsync$ext4" [ Helpers.r 0 ];
            call "write" [ Helpers.r 0; buf 100; iv 100 ];
          ]);
    r ~v:V5_11 "ext4_handle_dirty_metadata" (fun () ->
        prog
          [
            call "open$ext4" [ s "/mnt/ext4/f0"; i 0x40L; i 0x1ffL ];
            call "write" [ Helpers.r 0; buf 64; iv 64 ];
            call "fsync$ext4" [ Helpers.r 0 ];
            call "write" [ Helpers.r 0; buf 64; iv 64 ];
            call "ioctl$EXT4_IOC_SETFLAGS" [ Helpers.r 0; i 0x40086602L; group [ i 0L ] ];
          ]);
    r ~v:V5_11 "ext4_fc_commit" (fun () ->
        prog
          [
            call "open$ext4" [ s "/mnt/ext4/f0"; i 0x40L; i 0x1ffL ];
            call "ioctl$EXT4_IOC_FC_COMMIT" [ Helpers.r 0; i 0x6615L ];
            call "ioctl$EXT4_IOC_FC_COMMIT" [ Helpers.r 0; i 0x6615L ];
          ]);
    r ~v:V5_11 "fput_ep_remove" (fun () ->
        prog
          [
            call "epoll_create" [ iv 8 ];
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "epoll_ctl$EPOLL_CTL_ADD" [ Helpers.r 0; i 1L; Helpers.r 1; group [ i 1L; i 0L ] ];
            call "epoll_wait" [ Helpers.r 0; group [ i 0L; i 0L ]; iv 8; iv 0 ];
            call "close" [ Helpers.r 1 ];
          ]);
    r ~v:V5_11 "e1000_clean" (fun () ->
        prog
          [
            call "socket$packet" [ i 17L; i 3L; i 768L ];
            call "ioctl$ifup" [ Helpers.r 0; i 0x8914L; ptr (s "eth0") ];
            call "sendto$packet" [ Helpers.r 0; buf 64; iv 64; i 0L; ptr (s "eth0") ];
            call "recvfrom$packet" [ Helpers.r 0; buf 64; iv 64 ];
          ]);
    r ~v:V5_11 "cdev_del" (fun () ->
        prog
          [
            call "mknod$chr" [ s "/dev/c0"; i 0x2000L; i 0L ];
            call "open$chr" [ s "/dev/c0"; i 0L ];
            call "open$chr" [ s "/dev/c0"; i 0L ];
            call "write" [ Helpers.r 2; buf 8; iv 8 ];
            call "unlink" [ s "/dev/c0" ];
            call "close" [ Helpers.r 2 ];
          ]);
    r ~v:V5_11 "cma_cancel_operation" (fun () ->
        prog
          [
            call "openat$rdma_cm" [ i (-100L); s "/dev/infiniband/rdma_cm"; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
            call "ioctl$RDMA_BIND_ADDR" [ Helpers.r 0; i 0xc0184601L; Helpers.r 1; sockaddr ];
            call "ioctl$RDMA_RESOLVE_ADDR" [ Helpers.r 0; i 0xc0184602L; Helpers.r 1; sockaddr ];
            call "ioctl$RDMA_LISTEN" [ Helpers.r 0; i 0xc0184603L; Helpers.r 1; iv 8 ];
            call "ioctl$RDMA_DESTROY_ID" [ Helpers.r 0; i 0xc0184605L; Helpers.r 1 ];
          ]);
    r ~v:V5_11 "macvlan_broadcast" (fun () ->
        prog
          [
            call "socket$packet" [ i 17L; i 3L; i 768L ];
            call "ioctl$macvlan_create" [ Helpers.r 0; i 0x89f0L; ptr (s "eth0") ];
            call "ioctl$ifup" [ Helpers.r 0; i 0x8914L; ptr (s "macvlan0") ];
            call "ioctl$macvlan_del" [ Helpers.r 0; i 0x89f1L; ptr (s "macvlan0") ];
            call "sendto$packet" [ Helpers.r 0; buf 64; iv 64; i 0L; ptr (s "macvlan0") ];
          ]);
    r ~v:V5_11 "rdma_listen" (fun () ->
        prog
          [
            call "openat$rdma_cm" [ i (-100L); s "/dev/infiniband/rdma_cm"; i 0L ];
            call "ioctl$RDMA_CREATE_ID" [ Helpers.r 0; i 0xc0184600L; i 0L ];
            call "ioctl$RDMA_BIND_ADDR" [ Helpers.r 0; i 0xc0184601L; Helpers.r 1; sockaddr ];
            call "ioctl$RDMA_DESTROY_ID" [ Helpers.r 0; i 0xc0184605L; Helpers.r 1 ];
            call "ioctl$RDMA_LISTEN" [ Helpers.r 0; i 0xc0184603L; Helpers.r 1; iv 8 ];
          ]);
    r ~v:V5_11 "ieee802154_tx" (fun () ->
        prog
          [
            call "socket$ieee802154" [ i 36L; i 2L; i 0L ];
            call "dup" [ Helpers.r 0 ];
            call "close" [ Helpers.r 0 ];
            call "sendto$ieee802154" [ Helpers.r 1; buf 32; iv 32; i 0L; sockaddr ];
          ]);
    r ~v:V5_11 "qdisc_calculate_pkt_len" (fun () ->
        prog
          [
            call "socket$packet" [ i 17L; i 3L; i 768L ];
            call "ioctl$ifup" [ Helpers.r 0; i 0x8914L; ptr (s "eth0") ];
            call "ioctl$qdisc_add" [ Helpers.r 0; i 0x89f2L; ptr (s "eth0"); i 0L ];
            call "sendto$packet" [ Helpers.r 0; buf 3000; iv 3000; i 0L; ptr (s "eth0") ];
          ]);
    r ~v:V5_11 "n_tty_open" (fun () ->
        prog
          [
            call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 21L) ];
            call "ioctl$TIOCSTI" [ Helpers.r 0; i 0x5412L; ptr (i 65L) ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 0L) ];
          ]);
    r ~v:V5_11 "build_skb" (fun () ->
        prog
          [
            call "socket$tcp" [ i 2L; i 1L; i 6L ];
            call "connect" [ Helpers.r 0; sockaddr ];
            call "setsockopt$SO_SNDBUF" [ Helpers.r 0; i 1L; i 7L; group [ iv 100 ] ];
            call "sendto" [ Helpers.r 0; buf 9000; iv 9000; i 0L; sockaddr ];
          ]);
    r ~v:V5_11 "kvm_vm_ioctl_unregister_coalesced_mmio" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_REGISTER_COALESCED_MMIO"
                [ Helpers.r 1; i 0x4010ae67L; group [ i 0x1000L; i 16L; i 0L ] ];
              call "ioctl$KVM_UNREGISTER_COALESCED_MMIO"
                [ Helpers.r 1; i 0x4010ae68L; group [ i 0x2000L; i 16L; i 0L ] ];
            ]));
    r ~v:V5_11 "blk_add_partitions" (fun () ->
        prog
          [
            call "openat$loop" [ i (-100L); s "/dev/loop0"; i 0L ];
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "ioctl$LOOP_SET_FD" [ Helpers.r 0; i 0x4c00L; Helpers.r 1 ];
            call "ioctl$BLKPG_ADD" [ Helpers.r 0; i 0x1269L; group [ i 1L; i 0L; i 0L ] ];
            call "ioctl$BLKPG_DEL" [ Helpers.r 0; i 0x126aL; group [ i 1L; i 0L; i 0L ] ];
            call "ioctl$BLKRRPART" [ Helpers.r 0; i 0x125fL ];
          ]);
    r ~v:V5_11 "kvm_io_bus_unregister_dev" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_IOEVENTFD"
                [ Helpers.r 1; i 0x4040ae79L; group [ i 0x1000L; i 0L; i 0L ] ];
              call "ioctl$KVM_IOEVENTFD"
                [ Helpers.r 1; i 0x4040ae79L; group [ i 0x2000L; i 4L; i 0L ] ];
            ]));
    r ~v:V5_11 "io_uring_cancel_task_requests" (fun () ->
        prog
          [
            call "io_uring_setup" [ iv 64; group [ iv 64; iv 64; i 0L ] ];
            call "io_uring_register$BUFFERS"
              [ Helpers.r 0; i 0L; ptr (Value.Group [ Value.Group [ vma; i 4096L ] ]); iv 1 ];
            call "io_uring_enter" [ Helpers.r 0; iv 4; i 0L; i 0L ];
            call "io_uring_register$UNREGISTER_BUFFERS" [ Helpers.r 0; i 1L; ptr (i 0L); i 0L ];
            call "io_uring_enter" [ Helpers.r 0; iv 1; i 0L; i 1L ];
          ]);
    r ~v:V5_11 "gsmld_attach_gsm" (fun () ->
        prog
          [
            call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 21L) ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 21L) ];
          ]);
    r ~v:V5_6 "drop_nlink" (fun () ->
        prog
          [
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "link" [ s "/tmp/f0"; s "/tmp/l0" ];
            call "fstat" [ Helpers.r 0; group [ i 0L; i 0L; i 0L ] ];
            call "unlink" [ s "/tmp/f0" ];
          ]);
    r ~v:V5_6 "kvm_gfn_to_hva_cache_init" (fun () ->
        prog
          (kvm_prefix
          @ [
              call "ioctl$KVM_CREATE_VCPU" [ Helpers.r 1; i 0xae41L; i 0L ];
              call "ioctl$KVM_SET_USER_MEMORY_REGION"
                [ Helpers.r 1; i 0x4020ae46L;
                  group [ i 0L; i 0L; i 0L; i 0x1000000000000000L; vma ] ];
              call "ioctl$KVM_RUN" [ Helpers.r 2; i 0xae80L ];
            ]));
    r ~v:V5_6 "nfs23_parse_monolithic" (fun () ->
        prog
          [
            call "mount$nfs"
              [ s "10.0.0.1:/export"; s "/mnt/a"; group [ i 3L; i 300L; buf 16 ] ];
          ]);
    r ~v:V5_6 "rxrpc_lookup_local" (fun () ->
        prog
          [
            call "socket$rxrpc" [ i 33L; i 2L; i 0L ];
            call "bind$rxrpc" [ Helpers.r 0; sockaddr ];
            call "bind$rxrpc" [ Helpers.r 0; sockaddr ];
            call "connect" [ Helpers.r 0; sockaddr ];
          ]);
    r ~v:V5_6 ~fault_call:1 "fill_thread_core_info" (fun () ->
        prog
          [
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "write" [ Helpers.r 0; buf 16; iv 16 ];
          ]);
    r ~v:V5_6 "rds_ib_add_conn" (fun () ->
        prog
          [
            call "socket$rds" [ i 21L; i 5L; i 0L ];
            call "setsockopt$rds_ib" [ Helpers.r 0; i 276L; i 1L; group [ i 1L ] ];
            call "connect" [ Helpers.r 0; sockaddr ];
          ]);
    r ~v:V5_0 "vcs_scr_readw" (fun () ->
        prog
          [
            call "openat$vcs" [ i (-100L); s "/dev/vcs"; i 0L ];
            call "ioctl$VT_DISALLOCATE" [ Helpers.r 0; i 0x5608L; i 1L ];
            call "read" [ Helpers.r 0; buf 16; iv 16 ];
          ]);
    r ~v:V5_0 "n_tty_receive_buf_common" (fun () ->
        prog
          [
            call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
            call "read" [ Helpers.r 0; buf 8; iv 8 ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 2L) ];
            call "ioctl$TIOCSETD" [ Helpers.r 0; i 0x5423L; ptr (i 3L) ];
            call "ioctl$TIOCSTI" [ Helpers.r 0; i 0x5412L; ptr (i 65L) ];
          ]);
    r ~v:V5_0 "soft_cursor" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$FBIOPAN_DISPLAY" [ Helpers.r 0; i 0x4606L; group [ i 0L; i 0L; i 0L; i 0L ] ];
            call "ioctl$FBIOPUT_VSCREENINFO"
              [ Helpers.r 0; i 0x4601L; group [ i 400L; i 300L; i 32L; i 39721L ] ];
            call "ioctl$FBIO_CURSOR" [ Helpers.r 0; i 0x4608L; group [ i 100L; i 0L; buf 8 ] ];
          ]);
    r ~v:V5_0 "io_submit_one" (fun () ->
        prog
          [
            call "io_setup" [ iv 8 ];
            call "io_submit" [ Helpers.r 0; iv 2; ptr (Value.Group []) ];
            call "io_destroy" [ Helpers.r 0 ];
            call "io_submit" [ Helpers.r 0; iv 1; ptr (Value.Group []) ];
          ]);
    r ~v:V5_0 "free_ioctx_users" (fun () ->
        prog
          [
            call "io_setup" [ iv 8 ];
            call "io_submit" [ Helpers.r 0; iv 2; ptr (Value.Group []) ];
            call "io_destroy" [ Helpers.r 0 ];
            call "io_destroy" [ Helpers.r 0 ];
          ]);
    r ~v:V4_19 "fb_var_to_videomode" (fun () ->
        prog
          [
            call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
            call "ioctl$FBIOPAN_DISPLAY" [ Helpers.r 0; i 0x4606L; group [ i 0L; i 0L; i 0L; i 0L ] ];
            call "ioctl$FBIOPUT_VSCREENINFO"
              [ Helpers.r 0; i 0x4601L; group [ i 1024L; i 768L; i 32L; i 0L ] ];
          ]);
    r ~v:V4_19 "fs_reclaim_acquire" (fun () ->
        prog
          [
            call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
            call "write" [ Helpers.r 0; buf 64; iv 64 ];
            call "mmap" [ vma; iv 4096; i 1L; i 2L; Helpers.r 0; i 0L ];
            call "fallocate" [ Helpers.r 0; i 3L; i 0L; i 0x200000L ];
          ]);
    r ~v:V4_19 "reiserfs_fill_super" (fun () ->
        prog
          [
            call "mount$reiserfs"
              [ s "/dev/loop0"; s "/mnt/a"; Value.Buf (Blob.of_bytes (Bytes.of_string "jdev=1")) ];
          ]);
    (* ---- Netlink ---- *)
    (* Truncated IFLA_INFO_KIND "vlan": the claimed 40-byte attribute
       carries only a 4-byte payload, so the nested policy walk reads
       uninitialized message tail. *)
    r ~v:V5_4 "nla_parse_nested" (fun () ->
        prog
          [
            call "socket$nl_route" [ i 16L; i 3L; i 0L ];
            call "sendmsg$RTM_NEWLINK"
              [
                Helpers.r 0;
                group
                  [
                    iv 32; iv 16; i 0x401L; i 0L;
                    Value.Group [ i 0L; i 0L; i 0L; i 0L; i 0L ];
                    Value.Group
                      [ Value.Group [ Value.Group [ iv 40; iv 1; s "vlan" ] ] ];
                  ];
                i 0L;
              ];
          ]);
    (* Dump batch 1 records offset 2 of 3 links; deleting dummy0 shrinks
       the table to 2 before the resume indexes slot 2. *)
    r ~v:V5_6 "rtnl_dump_ifinfo" (fun () ->
        let ifi = Value.Group [ i 0L; i 0L; i 0L; i 0L; i 0L ] in
        let ifname_attr =
          Value.Group
            [ Value.Group [ Value.Group [ iv 10; iv 3; s "dummy0" ] ] ]
        in
        prog
          [
            call "socket$nl_route" [ i 16L; i 3L; i 0L ];
            call "sendmsg$RTM_NEWLINK"
              [ Helpers.r 0; group [ iv 32; iv 16; i 0x401L; i 0L; ifi; ifname_attr ]; i 0L ];
            call "sendmsg$RTM_GETLINK"
              [ Helpers.r 0; group [ iv 32; iv 18; i 0x301L; i 0L; ifi; Value.Group [] ]; i 0L ];
            call "sendmsg$RTM_DELLINK"
              [ Helpers.r 0; group [ iv 32; iv 17; i 0x1L; i 0L; ifi; ifname_attr ]; i 0L ];
            call "sendmsg$RTM_GETLINK"
              [ Helpers.r 0; group [ iv 32; iv 18; i 0x301L; i 0L; ifi; Value.Group [] ]; i 0L ];
          ]);
    (* GETFAMILY resolves devlink's runtime id, the socket binds to it,
       unregister frees the family, and the next send dispatches through
       the stale pointer. *)
    r ~v:V5_11 "genl_rcv_msg" (fun () ->
        prog
          [
            call "socket$nl_generic" [ i 16L; i 3L; i 16L ];
            call "sendmsg$GETFAMILY"
              [ Helpers.r 0; group [ iv 32; iv 3; iv 2; s "devlink" ]; i 0L ];
            call "bind$nl_generic" [ Helpers.r 0; Helpers.r 1 ];
            call "sendmsg$nlctrl_unregister" [ Helpers.r 0; Helpers.r 1; i 0L ];
            call "sendmsg$genl"
              [
                Helpers.r 0; Helpers.r 1;
                group [ iv 32; iv 1; iv 1; Value.Group [] ];
                i 0L;
              ];
          ]);
  ]
