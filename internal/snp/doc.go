// Package snp models the AMD SEV-SNP hardware surface that Veil depends on.
//
// The model is a deterministic, synchronous software implementation of the
// architectural features described in §3 of the Veil paper (ASPLOS '23):
//
//   - guest physical memory divided into 4 KiB pages;
//   - the reverse map table (RMP) tracking page ownership, validation state,
//     and per-VMPL access permissions;
//   - the RMPADJUST and PVALIDATE instructions with their privilege rules;
//   - virtual machine save areas (VMSAs) holding per-VCPU-instance register
//     state, created at a fixed VMPL for the lifetime of the instance, and
//     VMRUN, which enters only a VMSA of the entering VCPU and runs the
//     guest code (a Context) that VMSA holds;
//   - the guest-hypervisor communication block (GHCB) and its MSR;
//   - nested page faults (#NPF) which, as on real SNP hardware in the
//     configurations Veil uses, halt the CVM;
//   - a virtual cycle counter whose per-event costs are calibrated to the
//     micro-measurements reported in §9.1 of the paper.
//
// Every guest access to protected state goes through AccessContext, which
// enforces both the x86 page-table permissions (CPL) and the RMP permissions
// (VMPL), so the security experiments in §8 of the paper exercise real
// checks rather than assertions.
package snp
